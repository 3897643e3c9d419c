(** Tests for the C front end: lexer, declarator parsing, expression
    precedence, statements, and the rejected constructs. *)

open Test_util
module Ast = Cfront.Ast
module Ctype = Cfront.Ctype

let global_type p name =
  match List.find_opt (fun (d : Ast.decl) -> d.Ast.d_name = name) p.Ast.p_globals with
  | Some d -> d.Ast.d_ty
  | None -> Alcotest.failf "no global %s" name

let check_type msg expected actual =
  Alcotest.(check string) msg expected (Ctype.to_string actual)

let func p name =
  match Ast.find_func p name with
  | Some f -> f
  | None -> Alcotest.failf "no function %s" name

let fails_with_parse_error src =
  match parse src with
  | exception Cfront.Srcloc.Error _ -> true
  | _ -> false

let declarator_tests =
  [
    case "scalar declarations" (fun () ->
        let p = parse "int a; char b; double c; long d; unsigned e; short f;" in
        check_type "a" "int" (global_type p "a");
        check_type "b" "char" (global_type p "b");
        check_type "c" "double" (global_type p "c");
        check_type "d" "long" (global_type p "d");
        check_type "e" "int" (global_type p "e");
        check_type "f" "short" (global_type p "f"));
    case "multi-word specifiers" (fun () ->
        let p = parse "unsigned long a; long int b; unsigned char c; signed short int d;" in
        check_type "a" "long" (global_type p "a");
        check_type "b" "long" (global_type p "b");
        check_type "c" "char" (global_type p "c");
        check_type "d" "short" (global_type p "d"));
    case "pointer levels" (fun () ->
        let p = parse "int *p; int **pp; int ***ppp;" in
        check_type "p" "int*" (global_type p "p");
        check_type "pp" "int**" (global_type p "pp");
        check_type "ppp" "int***" (global_type p "ppp"));
    case "arrays" (fun () ->
        let p = parse "int a[10]; int b[2][3]; int *c[4]; int (*d)[5];" in
        check_type "array" "int[10]" (global_type p "a");
        check_type "2d array" "int[2][3]" (global_type p "b");
        check_type "array of pointers" "int*[4]" (global_type p "c");
        check_type "pointer to array" "int[5]*" (global_type p "d"));
    case "function pointers" (fun () ->
        let p = parse "int (*fp)(void); int (*gp)(int, char*); double (*tab[3])(void);" in
        check_type "fp" "int()*" (global_type p "fp");
        check_type "gp" "int(int, char*)*" (global_type p "gp");
        check_type "array of fn ptrs" "double()*[3]" (global_type p "tab"));
    case "pointer to function pointer" (fun () ->
        let p = parse "int (**pfp)(void);" in
        check_type "pfp" "int()**" (global_type p "pfp"));
    case "comma-separated declarators share specifiers" (fun () ->
        let p = parse "int a, *b, c[2], (*d)(void);" in
        check_type "a" "int" (global_type p "a");
        check_type "b" "int*" (global_type p "b");
        check_type "c" "int[2]" (global_type p "c");
        check_type "d" "int()*" (global_type p "d"));
    case "struct definition and fields" (fun () ->
        let p = parse "struct s { int x; struct s *next; char name[8]; }; struct s g;" in
        let l = Hashtbl.find p.Ast.p_layouts "s" in
        Alcotest.(check int) "three fields" 3 (List.length l.Ctype.fields);
        check_type "recursive field" "struct s*" (List.assoc "next" l.Ctype.fields));
    case "anonymous struct gets a fresh tag" (fun () ->
        let p = parse "struct { int a; } x; struct { int b; } y;" in
        match (global_type p "x", global_type p "y") with
        | Ctype.Su (_, t1), Ctype.Su (_, t2) ->
            Alcotest.(check bool) "distinct tags" true (t1 <> t2)
        | _ -> Alcotest.fail "not structs");
    case "union" (fun () ->
        let p = parse "union u { int i; char *p; }; union u g;" in
        check_type "u" "union u" (global_type p "g"));
    case "typedef resolution" (fun () ->
        let p = parse "typedef int myint; typedef myint *pint; pint g; myint h;" in
        check_type "pint" "int*" (global_type p "g");
        check_type "myint" "int" (global_type p "h"));
    case "typedef of struct pointer" (fun () ->
        let p =
          parse "typedef struct rec { int v; } Rec, *RecPtr; RecPtr g; Rec h;"
        in
        check_type "ptr" "struct rec*" (global_type p "g");
        check_type "val" "struct rec" (global_type p "h"));
    case "enum constants fold" (fun () ->
        let p = parse "enum e { A, B = 5, C }; int arr[C];" in
        check_type "C = 6" "int[6]" (global_type p "arr"));
    case "function definitions capture parameter names" (fun () ->
        let p = parse "int add(int a, int b) { return a + b; }" in
        let f = func p "add" in
        Alcotest.(check (list string)) "params" [ "a"; "b" ] (List.map fst f.Ast.f_params));
    case "array parameters decay" (fun () ->
        let p = parse "void f(int a[10], int b[], char *c) {}" in
        let f = func p "f" in
        check_type "a" "int*" (List.assoc "a" f.Ast.f_params);
        check_type "b" "int*" (List.assoc "b" f.Ast.f_params));
    case "function parameters decay to pointers" (fun () ->
        let p = parse "void f(int g(int)) {}" in
        let f = func p "f" in
        check_type "g" "int(int)*" (List.assoc "g" f.Ast.f_params));
    case "prototypes are recorded" (fun () ->
        let p = parse "int foo(int); double bar(void);" in
        Alcotest.(check bool) "foo" true (List.mem_assoc "foo" p.Ast.p_protos);
        Alcotest.(check bool) "bar" true (List.mem_assoc "bar" p.Ast.p_protos));
    case "variadic prototype" (fun () ->
        let p = parse "int printf(char *fmt, ...);" in
        match List.assoc "printf" p.Ast.p_protos with
        | { Ctype.variadic = true; _ } -> ()
        | _ -> Alcotest.fail "not variadic");
  ]

let expr_tests =
  [
    case "precedence: * binds tighter than +" (fun () ->
        let p = parse "int f() { return 1 + 2 * 3; }" in
        match (func p "f").Ast.f_body with
        | [ { Ast.s_desc = Ast.Sreturn (Some (Ast.Ebinary (Ast.Badd, _, _))); _ } ] -> ()
        | _ -> Alcotest.fail "expected + at the top");
    case "assignment is right-associative" (fun () ->
        let p = parse "int f() { int a, b; a = b = 1; return a; }" in
        let has_nested =
          List.exists
            (fun (s : Ast.stmt) ->
              match s.Ast.s_desc with
              | Ast.Sexpr (Ast.Eassign (None, _, Ast.Eassign _)) -> true
              | _ -> false)
            (func p "f").Ast.f_body
        in
        Alcotest.(check bool) "nested" true has_nested);
    case "cast vs parenthesized expression" (fun () ->
        let p = parse "typedef int T; int f(int x) { return (T) x + (x) * 2; }" in
        ignore (func p "f"));
    case "sizeof type and expression" (fun () ->
        let p = parse "int f(int *p) { return sizeof(int) + sizeof *p + sizeof(p); }" in
        ignore (func p "f"));
    case "char and string escapes" (fun () ->
        let p = parse {|char nl = '\n'; char *s = "a\tb\"c";|} in
        ignore (global_type p "nl"));
    case "adjacent string literals concatenate" (fun () ->
        let p = parse {|char *s = "foo" "bar";|} in
        match (List.hd p.Ast.p_globals).Ast.d_init with
        | Some (Ast.Iexpr (Ast.Estr "foobar")) -> ()
        | _ -> Alcotest.fail "not concatenated");
    case "hex and octal literals" (fun () ->
        let p = parse "int a[0x10]; int b[010];" in
        check_type "hex" "int[16]" (global_type p "a");
        check_type "octal" "int[8]" (global_type p "b"));
    case "conditional expression parses" (fun () ->
        let p = parse "int f(int x) { return x ? 1 : x ? 2 : 3; }" in
        ignore (func p "f"));
  ]

let stmt_tests =
  [
    case "all structured statements parse" (fun () ->
        let src =
          {|
          int f(int n) {
            int i, acc;
            acc = 0;
            for (i = 0; i < n; i++) acc += i;
            while (acc > 100) acc -= 10;
            do { acc++; } while (acc < 0);
            switch (acc) {
            case 0: return 0;
            case 1:
            case 2: acc = 5; break;
            default: acc = 9;
            }
            if (acc > 3) return acc; else return -acc;
          }
          |}
        in
        ignore (func (parse src) "f"));
    case "goto is rejected with a diagnostic" (fun () ->
        Alcotest.(check bool) "rejected" true
          (fails_with_parse_error "int f() { goto end; end: return 0; }"));
    case "unterminated comment is an error" (fun () ->
        Alcotest.(check bool) "rejected" true (fails_with_parse_error "int a; /* oops"));
    case "unknown character is an error" (fun () ->
        Alcotest.(check bool) "rejected" true (fails_with_parse_error "int a @ b;"));
    case "preprocessor lines are skipped" (fun () ->
        let p = parse "#include <stdio.h>\n#define X 1\nint a;" in
        check_type "a" "int" (global_type p "a"));
    case "local scopes shadow correctly" (fun () ->
        let src = "int x; int f() { int x; { int x; x = 1; } x = 2; return x; }" in
        ignore (func (parse src) "f"));
    case "break/continue only inside loops parse fine" (fun () ->
        let src = "int f(int n) { while (n) { if (n == 2) break; n--; continue; } return n; }" in
        ignore (func (parse src) "f"));
    case "initializer lists" (fun () ->
        let p = parse "int a[3] = {1, 2, 3}; struct s { int x, y; } g = { 4, 5 };" in
        ignore (global_type p "a"));
  ]

(** The first token the lexer reads from [s]. *)
let lex1 s = Cfront.Lexer.token (Lexing.from_string s)

let lexer_tests =
  [
    case "keywords lex to their tokens, near-keywords to identifiers" (fun () ->
        List.iter
          (fun (kw, tok) ->
            Alcotest.(check bool) (kw ^ " is its keyword") true (lex1 kw = tok))
          Cfront.Token.keyword_table;
        List.iter
          (fun s ->
            Alcotest.(check bool) (s ^ " is an identifier") true (lex1 s = Cfront.Token.IDENT s))
          [ "int_"; "iff"; "Int"; "returns"; "sizeof_x" ]);
  ]

let bench_dir = if Sys.file_exists "benchmarks" then "benchmarks" else "../benchmarks"

(** The benchmarks with string literals, whose lexing once shared one
    module-level buffer. *)
let literal_benchmarks = [ "stanford"; "xref"; "toplev"; "config"; "fixoutput" ]

let domain_tests =
  [
    case "two domains lexing string literals at once parse what one does" (fun () ->
        let texts =
          List.map
            (fun n ->
              let file = Filename.concat bench_dir (n ^ ".c") in
              (file, In_channel.with_open_bin file In_channel.input_all))
            literal_benchmarks
        in
        let parse_all () =
          List.map (fun (file, text) -> Cfront.Parser.parse_string ~file text) texts
        in
        let want = parse_all () in
        (* parses whose AST differs from the sequential one *)
        let worker () =
          let bad = ref 0 in
          for _ = 1 to 300 do
            List.iter2 (fun got want -> if got <> want then incr bad) (parse_all ()) want
          done;
          !bad
        in
        let ds = List.init 2 (fun _ -> Domain.spawn worker) in
        Alcotest.(check (list int))
          "differing parses per domain" [ 0; 0 ] (List.map Domain.join ds));
  ]

let suite = ("parser", declarator_tests @ expr_tests @ stmt_tests @ lexer_tests @ domain_tests)
