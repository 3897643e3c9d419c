(** Lexical tokens for the C subset. *)

type t =
  | INT_LIT of int64
  | FLOAT_LIT of float
  | CHAR_LIT of char
  | STR_LIT of string
  | IDENT of string
  (* keywords *)
  | KW_VOID
  | KW_CHAR
  | KW_SHORT
  | KW_INT
  | KW_LONG
  | KW_FLOAT
  | KW_DOUBLE
  | KW_SIGNED
  | KW_UNSIGNED
  | KW_CONST
  | KW_VOLATILE
  | KW_STATIC
  | KW_EXTERN
  | KW_REGISTER
  | KW_AUTO
  | KW_STRUCT
  | KW_UNION
  | KW_ENUM
  | KW_TYPEDEF
  | KW_IF
  | KW_ELSE
  | KW_WHILE
  | KW_DO
  | KW_FOR
  | KW_SWITCH
  | KW_CASE
  | KW_DEFAULT
  | KW_BREAK
  | KW_CONTINUE
  | KW_RETURN
  | KW_GOTO
  | KW_SIZEOF
  (* punctuation *)
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | SEMI
  | COMMA
  | COLON
  | QUESTION
  | DOT
  | ARROW
  | ELLIPSIS
  (* operators *)
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | PERCENT
  | AMP
  | PIPE
  | CARET
  | TILDE
  | BANG
  | LT
  | GT
  | LE
  | GE
  | EQEQ
  | NEQ
  | AMPAMP
  | PIPEPIPE
  | SHL
  | SHR
  | PLUSPLUS
  | MINUSMINUS
  | ASSIGN
  | PLUS_ASSIGN
  | MINUS_ASSIGN
  | STAR_ASSIGN
  | SLASH_ASSIGN
  | PERCENT_ASSIGN
  | AMP_ASSIGN
  | PIPE_ASSIGN
  | CARET_ASSIGN
  | SHL_ASSIGN
  | SHR_ASSIGN
  | EOF

let keyword_table : (string * t) list =
  [
    ("void", KW_VOID);
    ("char", KW_CHAR);
    ("short", KW_SHORT);
    ("int", KW_INT);
    ("long", KW_LONG);
    ("float", KW_FLOAT);
    ("double", KW_DOUBLE);
    ("signed", KW_SIGNED);
    ("unsigned", KW_UNSIGNED);
    ("const", KW_CONST);
    ("volatile", KW_VOLATILE);
    ("static", KW_STATIC);
    ("extern", KW_EXTERN);
    ("register", KW_REGISTER);
    ("auto", KW_AUTO);
    ("struct", KW_STRUCT);
    ("union", KW_UNION);
    ("enum", KW_ENUM);
    ("typedef", KW_TYPEDEF);
    ("if", KW_IF);
    ("else", KW_ELSE);
    ("while", KW_WHILE);
    ("do", KW_DO);
    ("for", KW_FOR);
    ("switch", KW_SWITCH);
    ("case", KW_CASE);
    ("default", KW_DEFAULT);
    ("break", KW_BREAK);
    ("continue", KW_CONTINUE);
    ("return", KW_RETURN);
    ("goto", KW_GOTO);
    ("sizeof", KW_SIZEOF);
  ]

(* Built once and only read afterwards, so lexers on several domains
   may share it. *)
let keywords : (string, t) Hashtbl.t = Hashtbl.of_seq (List.to_seq keyword_table)

let of_ident s = match Hashtbl.find_opt keywords s with Some kw -> kw | None -> IDENT s

let to_string = function
  | INT_LIT n -> Int64.to_string n
  | FLOAT_LIT f -> string_of_float f
  | CHAR_LIT c -> Printf.sprintf "%C" c
  | STR_LIT s -> Printf.sprintf "%S" s
  | IDENT s -> s
  | KW_VOID -> "void"
  | KW_CHAR -> "char"
  | KW_SHORT -> "short"
  | KW_INT -> "int"
  | KW_LONG -> "long"
  | KW_FLOAT -> "float"
  | KW_DOUBLE -> "double"
  | KW_SIGNED -> "signed"
  | KW_UNSIGNED -> "unsigned"
  | KW_CONST -> "const"
  | KW_VOLATILE -> "volatile"
  | KW_STATIC -> "static"
  | KW_EXTERN -> "extern"
  | KW_REGISTER -> "register"
  | KW_AUTO -> "auto"
  | KW_STRUCT -> "struct"
  | KW_UNION -> "union"
  | KW_ENUM -> "enum"
  | KW_TYPEDEF -> "typedef"
  | KW_IF -> "if"
  | KW_ELSE -> "else"
  | KW_WHILE -> "while"
  | KW_DO -> "do"
  | KW_FOR -> "for"
  | KW_SWITCH -> "switch"
  | KW_CASE -> "case"
  | KW_DEFAULT -> "default"
  | KW_BREAK -> "break"
  | KW_CONTINUE -> "continue"
  | KW_RETURN -> "return"
  | KW_GOTO -> "goto"
  | KW_SIZEOF -> "sizeof"
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACE -> "{"
  | RBRACE -> "}"
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | SEMI -> ";"
  | COMMA -> ","
  | COLON -> ":"
  | QUESTION -> "?"
  | DOT -> "."
  | ARROW -> "->"
  | ELLIPSIS -> "..."
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | SLASH -> "/"
  | PERCENT -> "%"
  | AMP -> "&"
  | PIPE -> "|"
  | CARET -> "^"
  | TILDE -> "~"
  | BANG -> "!"
  | LT -> "<"
  | GT -> ">"
  | LE -> "<="
  | GE -> ">="
  | EQEQ -> "=="
  | NEQ -> "!="
  | AMPAMP -> "&&"
  | PIPEPIPE -> "||"
  | SHL -> "<<"
  | SHR -> ">>"
  | PLUSPLUS -> "++"
  | MINUSMINUS -> "--"
  | ASSIGN -> "="
  | PLUS_ASSIGN -> "+="
  | MINUS_ASSIGN -> "-="
  | STAR_ASSIGN -> "*="
  | SLASH_ASSIGN -> "/="
  | PERCENT_ASSIGN -> "%="
  | AMP_ASSIGN -> "&="
  | PIPE_ASSIGN -> "|="
  | CARET_ASSIGN -> "^="
  | SHL_ASSIGN -> "<<="
  | SHR_ASSIGN -> ">>="
  | EOF -> "<eof>"
