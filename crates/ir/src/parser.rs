//! A small text DSL for writing loop-nest programs.
//!
//! Grammar (informal):
//!
//! ```text
//! program  := item*
//! item     := "array" IDENT ("[" INT "]")+ ";"  |  stmt
//! stmt     := loop | if | assign
//! loop     := ("for" | "doall" | "doacross" "(" INT ")") IDENT "=" expr ".." expr
//!             ("step" expr)? block
//! if       := "if" cond block ("else" block)?
//! assign   := IDENT ("[" expr "]")* "=" expr ";"
//! block    := "{" stmt* "}"
//! expr     := term (("+" | "-") term)*
//! term     := factor (("*" | "/" | "%") factor)*
//! factor   := INT | "-" factor | "(" expr ")" | call | IDENT ("[" expr "]")*
//! call     := ("min" | "max" | "ceildiv") "(" expr "," expr ")"
//! cond     := orcond;  orcond := andcond ("||" andcond)*
//! andcond  := atom ("&&" atom)*
//! atom     := "!" atom | "(" cond ")" | expr cmpop expr
//! cmpop    := "==" | "!=" | "<=" | "<" | ">=" | ">"
//! ```
//!
//! `/` is floor division and `%` floor modulus (see [`crate::arith`]).
//! Comments run from `//` to end of line.

use crate::error::{Error, Result};
use crate::expr::{ArrayRef, BinOp, CmpOp, Cond, Expr};
use crate::program::{ArrayDecl, Program};
use crate::stmt::{Loop, LoopKind, Stmt};
use crate::symbol::Symbol;

/// Maximum syntactic nesting (blocks, parentheses, subscripts) the
/// parser accepts. The parser is recursive-descent, so unbounded nesting
/// in adversarial input would otherwise exhaust the thread stack — and a
/// stack overflow aborts the whole process, which a serving deployment
/// cannot tolerate. Beyond this depth the parser reports an ordinary
/// [`Error::Parse`]. Real programs nest a handful of levels; 200 is far
/// above anything legitimate and far below stack exhaustion.
pub const MAX_NEST_DEPTH: usize = 200;

/// Parse a complete program (declarations + statements).
pub fn parse_program(src: &str) -> Result<Program> {
    parse_program_with_loop_lines(src).map(|(prog, _)| prog)
}

/// Parse a complete program, also returning the 1-based source line of
/// every loop keyword in textual order, which is the pre-order of the
/// program's loops. The lines travel beside the [`Program`], not inside
/// it, so program equality stays independent of layout.
pub fn parse_program_with_loop_lines(src: &str) -> Result<(Program, Vec<usize>)> {
    let mut p = Parser::new(src)?;
    let mut prog = Program::new();
    while !p.at_end() {
        if p.peek_is_kw("array") {
            prog.arrays.push(p.array_decl()?);
        } else {
            prog.body.push(p.stmt()?);
        }
    }
    prog.check()?;
    Ok((prog, p.loop_lines))
}

/// Parse a single expression (handy in tests).
pub fn parse_expr(src: &str) -> Result<Expr> {
    let mut p = Parser::new(src)?;
    let e = p.expr()?;
    if !p.at_end() {
        return Err(p.err("trailing input after expression"));
    }
    Ok(e)
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(i64),
    Punct(&'static str),
}

#[derive(Debug, Clone)]
struct SpannedTok {
    tok: Tok,
    line: usize,
}

fn lex(src: &str) -> Result<Vec<SpannedTok>> {
    let mut out = Vec::new();
    let mut line = 1usize;
    let bytes = src.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                out.push(SpannedTok {
                    tok: Tok::Ident(src[start..i].to_string()),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                let text = &src[start..i];
                let v: i64 = text.parse().map_err(|_| Error::Parse {
                    line,
                    message: format!("integer literal `{text}` out of range"),
                })?;
                out.push(SpannedTok {
                    tok: Tok::Int(v),
                    line,
                });
            }
            _ => {
                // Match on bytes: `i + 2` may split a multi-byte character.
                let two = bytes.get(i..i + 2).unwrap_or_default();
                let punct2 = ["..", "==", "!=", "<=", ">=", "&&", "||"]
                    .iter()
                    .find(|p| p.as_bytes() == two)
                    .copied();
                if let Some(p2) = punct2 {
                    out.push(SpannedTok {
                        tok: Tok::Punct(p2),
                        line,
                    });
                    i += 2;
                } else {
                    let one = [
                        "[", "]", "{", "}", "(", ")", "=", ";", "+", "-", "*", "/", "%", "<", ">",
                        "!", ",",
                    ]
                    .iter()
                    .find(|p| p.as_bytes()[0] == bytes[i])
                    .copied();
                    match one {
                        Some(p1) => {
                            out.push(SpannedTok {
                                tok: Tok::Punct(p1),
                                line,
                            });
                            i += 1;
                        }
                        None => {
                            // Name the character, not its first byte.
                            let c = src.get(i..).and_then(|r| r.chars().next()).unwrap_or(c);
                            return Err(Error::Parse {
                                line,
                                message: format!("unexpected character `{c}`"),
                            });
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<SpannedTok>,
    pos: usize,
    depth: usize,
    /// Line of each loop keyword parsed so far, in textual order.
    loop_lines: Vec<usize>,
}

impl Parser {
    fn new(src: &str) -> Result<Parser> {
        Ok(Parser {
            tokens: lex(src)?,
            pos: 0,
            depth: 0,
            loop_lines: Vec::new(),
        })
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    /// Bump the nesting depth around a recursive production, rejecting
    /// input nested beyond [`MAX_NEST_DEPTH`].
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        self.depth += 1;
        let r = if self.depth > MAX_NEST_DEPTH {
            Err(self.err(format!(
                "nesting deeper than {MAX_NEST_DEPTH} levels is not supported"
            )))
        } else {
            f(self)
        };
        self.depth -= 1;
        r
    }

    fn line(&self) -> usize {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map(|t| t.line)
            .unwrap_or(1)
    }

    fn err(&self, message: impl Into<String>) -> Error {
        Error::Parse {
            line: self.line(),
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|t| &t.tok)
    }

    fn peek_is_punct(&self, p: &str) -> bool {
        matches!(self.peek(), Some(Tok::Punct(q)) if *q == p)
    }

    fn peek_is_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s == kw)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).map(|t| t.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_punct(&mut self, p: &'static str) -> Result<()> {
        match self.bump() {
            Some(Tok::Punct(q)) if q == p => Ok(()),
            Some(other) => Err(self.err(format!("expected `{p}`, found {other:?}"))),
            None => Err(self.err(format!("expected `{p}`, found end of input"))),
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            Some(other) => Err(self.err(format!("expected identifier, found {other:?}"))),
            None => Err(self.err("expected identifier, found end of input")),
        }
    }

    fn expect_int(&mut self) -> Result<i64> {
        match self.bump() {
            Some(Tok::Int(v)) => Ok(v),
            Some(other) => Err(self.err(format!("expected integer, found {other:?}"))),
            None => Err(self.err("expected integer, found end of input")),
        }
    }

    fn array_decl(&mut self) -> Result<ArrayDecl> {
        let _ = self.bump(); // "array"
        let name = self.expect_ident()?;
        let mut dims = Vec::new();
        while self.peek_is_punct("[") {
            self.expect_punct("[")?;
            let v = self.expect_int()?;
            if v < 0 {
                return Err(self.err("array extent must be non-negative"));
            }
            dims.push(v as usize);
            self.expect_punct("]")?;
        }
        if dims.is_empty() {
            return Err(self.err("array declaration needs at least one `[extent]`"));
        }
        self.expect_punct(";")?;
        Ok(ArrayDecl::new(name, dims))
    }

    fn block(&mut self) -> Result<Vec<Stmt>> {
        self.expect_punct("{")?;
        let mut stmts = Vec::new();
        while !self.peek_is_punct("}") {
            if self.at_end() {
                return Err(self.err("unterminated block: expected `}`"));
            }
            stmts.push(self.stmt()?);
        }
        self.expect_punct("}")?;
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt> {
        self.nested(|p| {
            if p.peek_is_kw("for") || p.peek_is_kw("doall") || p.peek_is_kw("doacross") {
                return p.loop_stmt();
            }
            if p.peek_is_kw("if") {
                return p.if_stmt();
            }
            p.assign_stmt()
        })
    }

    fn loop_stmt(&mut self) -> Result<Stmt> {
        self.loop_lines.push(self.line());
        let kw = self.expect_ident()?;
        let kind = match kw.as_str() {
            "for" => LoopKind::Serial,
            "doall" => LoopKind::Doall,
            "doacross" => {
                self.expect_punct("(")?;
                let d = self.expect_int()?;
                if d < 0 || d > u32::MAX as i64 {
                    return Err(self.err("doacross delay out of range"));
                }
                self.expect_punct(")")?;
                LoopKind::Doacross { delay: d as u32 }
            }
            other => return Err(self.err(format!("unknown loop keyword `{other}`"))),
        };
        let var = self.expect_ident()?;
        self.expect_punct("=")?;
        let lower = self.expr()?;
        self.expect_punct("..")?;
        let upper = self.expr()?;
        let step = if self.peek_is_kw("step") {
            let _ = self.bump();
            self.expr()?
        } else {
            Expr::lit(1)
        };
        let body = self.block()?;
        Ok(Stmt::Loop(Loop {
            var: Symbol::new(var),
            lower,
            upper,
            step,
            kind,
            body,
        }))
    }

    fn if_stmt(&mut self) -> Result<Stmt> {
        let _ = self.bump(); // "if"
        let cond = self.cond()?;
        let then_body = self.block()?;
        let else_body = if self.peek_is_kw("else") {
            let _ = self.bump();
            self.block()?
        } else {
            Vec::new()
        };
        Ok(Stmt::If {
            cond,
            then_body,
            else_body,
        })
    }

    fn assign_stmt(&mut self) -> Result<Stmt> {
        let name = self.expect_ident()?;
        let mut indices = Vec::new();
        while self.peek_is_punct("[") {
            self.expect_punct("[")?;
            indices.push(self.expr()?);
            self.expect_punct("]")?;
        }
        self.expect_punct("=")?;
        let value = self.expr()?;
        self.expect_punct(";")?;
        if indices.is_empty() {
            Ok(Stmt::AssignScalar {
                var: Symbol::new(name),
                value,
            })
        } else {
            Ok(Stmt::AssignArray {
                target: ArrayRef::new(name, indices),
                value,
            })
        }
    }

    fn expr(&mut self) -> Result<Expr> {
        let mut lhs = self.term()?;
        loop {
            let op = if self.peek_is_punct("+") {
                BinOp::Add
            } else if self.peek_is_punct("-") {
                BinOp::Sub
            } else {
                break;
            };
            let _ = self.bump();
            let rhs = self.term()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn term(&mut self) -> Result<Expr> {
        let mut lhs = self.factor()?;
        loop {
            let op = if self.peek_is_punct("*") {
                BinOp::Mul
            } else if self.peek_is_punct("/") {
                BinOp::Div
            } else if self.peek_is_punct("%") {
                BinOp::Mod
            } else {
                break;
            };
            let _ = self.bump();
            let rhs = self.factor()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn factor(&mut self) -> Result<Expr> {
        self.nested(Self::factor_inner)
    }

    fn factor_inner(&mut self) -> Result<Expr> {
        if self.peek_is_punct("-") {
            let _ = self.bump();
            let inner = self.factor()?;
            // Fold `-<literal>` immediately so negative constants are
            // ordinary `Const` nodes (bounds/steps rely on `as_const`).
            if let Some(v) = inner.as_const() {
                if let Some(n) = v.checked_neg() {
                    return Ok(Expr::Const(n));
                }
            }
            return Ok(-inner);
        }
        if self.peek_is_punct("(") {
            let _ = self.bump();
            let e = self.expr()?;
            self.expect_punct(")")?;
            return Ok(e);
        }
        match self.bump() {
            Some(Tok::Int(v)) => Ok(Expr::Const(v)),
            Some(Tok::Ident(name)) => {
                let builtin = match name.as_str() {
                    "min" => Some(BinOp::Min),
                    "max" => Some(BinOp::Max),
                    "ceildiv" => Some(BinOp::CeilDiv),
                    _ => None,
                };
                if let Some(op) = builtin {
                    if self.peek_is_punct("(") {
                        self.expect_punct("(")?;
                        let a = self.expr()?;
                        self.expect_punct(",")?;
                        let b = self.expr()?;
                        self.expect_punct(")")?;
                        return Ok(Expr::bin(op, a, b));
                    }
                }
                if self.peek_is_punct("[") {
                    let mut indices = Vec::new();
                    while self.peek_is_punct("[") {
                        self.expect_punct("[")?;
                        indices.push(self.expr()?);
                        self.expect_punct("]")?;
                    }
                    Ok(Expr::Read(ArrayRef::new(name, indices)))
                } else {
                    Ok(Expr::var(name))
                }
            }
            Some(other) => Err(self.err(format!("expected expression, found {other:?}"))),
            None => Err(self.err("expected expression, found end of input")),
        }
    }

    fn cond(&mut self) -> Result<Cond> {
        let mut lhs = self.and_cond()?;
        while self.peek_is_punct("||") {
            let _ = self.bump();
            let rhs = self.and_cond()?;
            lhs = Cond::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_cond(&mut self) -> Result<Cond> {
        let mut lhs = self.cond_atom()?;
        while self.peek_is_punct("&&") {
            let _ = self.bump();
            let rhs = self.cond_atom()?;
            lhs = Cond::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn cond_atom(&mut self) -> Result<Cond> {
        self.nested(Self::cond_atom_inner)
    }

    fn cond_atom_inner(&mut self) -> Result<Cond> {
        if self.peek_is_punct("!") {
            let _ = self.bump();
            let inner = self.cond_atom()?;
            return Ok(Cond::Not(Box::new(inner)));
        }
        if self.peek_is_punct("(") {
            // Could be a parenthesized condition or a parenthesized
            // arithmetic expression starting a comparison; try condition
            // first with backtracking.
            let save = self.pos;
            let _ = self.bump();
            if let Ok(c) = self.cond() {
                if self.peek_is_punct(")") {
                    let _ = self.bump();
                    return Ok(c);
                }
            }
            self.pos = save;
        }
        let lhs = self.expr()?;
        let op = match self.bump() {
            Some(Tok::Punct("==")) => CmpOp::Eq,
            Some(Tok::Punct("!=")) => CmpOp::Ne,
            Some(Tok::Punct("<=")) => CmpOp::Le,
            Some(Tok::Punct("<")) => CmpOp::Lt,
            Some(Tok::Punct(">=")) => CmpOp::Ge,
            Some(Tok::Punct(">")) => CmpOp::Gt,
            Some(other) => {
                return Err(self.err(format!("expected comparison operator, found {other:?}")))
            }
            None => return Err(self.err("expected comparison operator, found end of input")),
        };
        let rhs = self.expr()?;
        Ok(Cond::Cmp(op, lhs, rhs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interp;

    #[test]
    fn parse_simple_program() {
        let p = parse_program(
            "
            array A[4][8];
            doall i = 1..4 {
                doall j = 1..8 {
                    A[i][j] = 10 * i + j;
                }
            }
            ",
        )
        .unwrap();
        assert_eq!(p.arrays.len(), 1);
        let store = Interp::new().run(&p).unwrap();
        assert_eq!(store.get("A", &[4, 8]).unwrap(), 48);
    }

    #[test]
    fn parse_expr_precedence() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        assert_eq!(e.fold(), Expr::Const(7));
        let e = parse_expr("(1 + 2) * 3").unwrap();
        assert_eq!(e.fold(), Expr::Const(9));
    }

    #[test]
    fn parse_floor_div_and_mod() {
        assert_eq!(parse_expr("7 / 2").unwrap().fold(), Expr::Const(3));
        assert_eq!(parse_expr("0 - 7 / 2").unwrap().fold(), Expr::Const(-3));
        assert_eq!(parse_expr("(0-7) / 2").unwrap().fold(), Expr::Const(-4));
        assert_eq!(parse_expr("7 % 3").unwrap().fold(), Expr::Const(1));
    }

    #[test]
    fn parse_builtins() {
        assert_eq!(parse_expr("min(3, 5)").unwrap().fold(), Expr::Const(3));
        assert_eq!(parse_expr("max(3, 5)").unwrap().fold(), Expr::Const(5));
        assert_eq!(parse_expr("ceildiv(7, 2)").unwrap().fold(), Expr::Const(4));
    }

    #[test]
    fn builtin_names_usable_as_variables() {
        // `min` without a call is an ordinary identifier.
        let e = parse_expr("min + 1").unwrap();
        let mut vars = Vec::new();
        e.variables(&mut vars);
        assert_eq!(vars, vec![Symbol::new("min")]);
    }

    #[test]
    fn parse_loop_with_step_and_bounds_exprs() {
        let p = parse_program(
            "
            array A[20];
            n = 19;
            for i = 1..n step 2 {
                A[i] = i;
            }
            ",
        )
        .unwrap();
        let store = Interp::new().run(&p).unwrap();
        assert_eq!(store.get("A", &[19]).unwrap(), 19);
        assert_eq!(store.get("A", &[2]).unwrap(), 0);
    }

    #[test]
    fn parse_if_else_and_conditions() {
        let p = parse_program(
            "
            array A[6];
            doall i = 1..6 {
                if i % 2 == 0 && i != 4 {
                    A[i] = 1;
                } else {
                    A[i] = 2;
                }
            }
            ",
        )
        .unwrap();
        let store = Interp::new().run(&p).unwrap();
        assert_eq!(store.get("A", &[2]).unwrap(), 1);
        assert_eq!(store.get("A", &[4]).unwrap(), 2);
        assert_eq!(store.get("A", &[5]).unwrap(), 2);
    }

    #[test]
    fn parse_parenthesized_condition() {
        let p = parse_program(
            "
            array A[4];
            doall i = 1..4 {
                if (i == 1 || i == 4) && !(i == 4) {
                    A[i] = 7;
                }
            }
            ",
        )
        .unwrap();
        let store = Interp::new().run(&p).unwrap();
        assert_eq!(store.get("A", &[1]).unwrap(), 7);
        assert_eq!(store.get("A", &[4]).unwrap(), 0);
    }

    #[test]
    fn parse_doacross() {
        let p = parse_program(
            "
            array A[4];
            doacross(2) i = 1..4 {
                A[i] = i;
            }
            ",
        )
        .unwrap();
        match &p.body[0] {
            Stmt::Loop(l) => assert_eq!(l.kind, LoopKind::Doacross { delay: 2 }),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn comments_are_skipped() {
        let p = parse_program(
            "
            // a comment
            array A[1]; // trailing
            A[1] = 3;
            ",
        )
        .unwrap();
        let store = Interp::new().run(&p).unwrap();
        assert_eq!(store.get("A", &[1]).unwrap(), 3);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_program("array A[4];\nA[1] = @;").unwrap_err();
        match err {
            Error::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn multibyte_characters_are_parse_errors_naming_the_character() {
        for (src, ch) in [
            ("€", '€'),
            ("x = 1; €", '€'),
            ("x =€", '€'),
            ("x = 1;\né", 'é'),
        ] {
            match parse_program(src) {
                Err(Error::Parse { message, .. }) => {
                    assert_eq!(message, format!("unexpected character `{ch}`"), "{src:?}")
                }
                other => panic!("{src:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn loop_lines_are_recorded_in_textual_order() {
        let src = "array doall[2];\narray A[2];\nfor for = 1..2 {\n  doall j = 1..2 { A[j] = doall[1] + for; }\n}\nif 1 == 1 {\n  for k = 1..2 { }\n}";
        let (prog, lines) = parse_program_with_loop_lines(src).unwrap();
        assert_eq!(lines, vec![3, 4, 7]);
        assert_eq!(prog, parse_program(src).unwrap());
    }

    #[test]
    fn unknown_array_rejected_at_parse_time() {
        let err = parse_program("B[1] = 0;").unwrap_err();
        assert!(matches!(err, Error::UnknownArray(_)));
    }

    #[test]
    fn unterminated_block_is_an_error() {
        let err = parse_program("doall i = 1..4 { x = 1;").unwrap_err();
        assert!(matches!(err, Error::Parse { .. }));
    }

    #[test]
    fn negative_literals_via_unary_minus() {
        assert_eq!(parse_expr("-5 + 2").unwrap().fold(), Expr::Const(-3));
    }

    #[test]
    fn deeply_nested_parens_are_rejected_not_overflowed() {
        let depth = 50_000;
        let src = format!("{}1{}", "(".repeat(depth), ")".repeat(depth));
        let err = parse_expr(&src).unwrap_err();
        assert!(matches!(err, Error::Parse { .. }));
        assert!(err.to_string().contains("nesting"));
    }

    #[test]
    fn deeply_nested_blocks_are_rejected_not_overflowed() {
        let depth = 50_000;
        let mut src = String::from("array A[1];\n");
        for _ in 0..depth {
            src.push_str("if 1 == 1 { ");
        }
        src.push_str("A[1] = 0;");
        for _ in 0..depth {
            src.push_str(" }");
        }
        let err = parse_program(&src).unwrap_err();
        assert!(matches!(err, Error::Parse { .. }));
    }

    #[test]
    fn nesting_at_modest_depth_still_parses() {
        let depth = 40;
        let src = format!("{}7{}", "(".repeat(depth), ")".repeat(depth));
        assert_eq!(parse_expr(&src).unwrap().fold(), Expr::Const(7));
    }
}
