//! Recursive-descent parser for MiniCU.

use std::collections::HashSet;
use std::fmt;

use crate::ast::*;
use crate::lexer::{lex, LexError, Tok, Token};

/// Parse error with a 1-based line:column source position.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub line: u32,
    pub col: u32,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at line {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            line: e.line,
            col: e.col,
            message: e.message,
        }
    }
}

type PResult<T> = Result<T, ParseError>;

/// The deepest AST nesting [`parse`] accepts. Depth counts statements
/// inside statements, operands inside expressions (parentheses, unary
/// operators, the right side of `=` and `?:`), one level per operator on
/// a left-associative chain (`a + b + c`, `a[i][j]`, `p->f->g`) and one
/// per `*` of a pointer type. The parser, sema, the interpreter, the
/// instrument pass, unparse and `Drop` all recurse over the tree, so the
/// bound keeps hostile input (20k nested parentheses, a 100k-term sum)
/// from overflowing the stack. At 128, a program nested to the limit
/// still runs on a 2 MiB thread in a debug build, where a parser or
/// interpreter frame per level takes up to about 10 KiB; the shipped
/// programs nest about 20 deep.
pub const MAX_DEPTH: usize = 128;

/// Parse a complete MiniCU translation unit.
pub fn parse(src: &str) -> PResult<Program> {
    let tokens = lex(src)?;
    let mut p = Parser {
        toks: tokens,
        pos: 0,
        structs: HashSet::new(),
        depth: 0,
    };
    p.program()
}

/// Parse a single expression (tests, tools).
pub fn parse_expr(src: &str) -> PResult<Expr> {
    let tokens = lex(src)?;
    let mut p = Parser {
        toks: tokens,
        pos: 0,
        structs: HashSet::new(),
        depth: 0,
    };
    let e = p.expr()?;
    p.expect(Tok::Eof)?;
    Ok(e)
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    structs: HashSet<String>,
    /// Current AST nesting, bounded by [`MAX_DEPTH`].
    depth: usize,
}

const TYPE_KEYWORDS: [&str; 6] = ["void", "int", "float", "double", "char", "size_t"];
const QUALIFIERS: [&str; 3] = ["__global__", "__device__", "__host__"];

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].kind
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].kind
    }

    /// (line, col) of the token at the cursor.
    fn pos(&self) -> (u32, u32) {
        let t = &self.toks[self.pos];
        (t.line, t.col)
    }

    /// [`pos`](Self::pos) as a [`Span`].
    fn span(&self) -> Span {
        let (line, col) = self.pos();
        Span::new(line, col)
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].kind.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: Tok) -> bool {
        if *self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Tok) -> PResult<()> {
        if self.eat(t.clone()) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{t}`, found `{}`", self.peek())))
        }
    }

    fn err(&self, message: String) -> ParseError {
        let (line, col) = self.pos();
        ParseError { line, col, message }
    }

    /// Go one level deeper, or fail at the cursor past [`MAX_DEPTH`].
    /// Callers restore `depth` when the nested construct is done.
    fn enter(&mut self) -> PResult<()> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    /// Parse `inner` one level deeper.
    fn nested<T>(&mut self, inner: fn(&mut Self) -> PResult<T>) -> PResult<T> {
        self.enter()?;
        let t = inner(self);
        self.depth -= 1;
        t
    }

    fn ident(&mut self) -> PResult<String> {
        let (line, col) = self.pos();
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(ParseError {
                line,
                col,
                message: format!("expected identifier, found `{other}`"),
            }),
        }
    }

    // ------------------------------------------------------------------
    // Types
    // ------------------------------------------------------------------

    fn is_type_start(&self) -> bool {
        match self.peek() {
            Tok::Ident(s) => {
                s == "struct" || TYPE_KEYWORDS.contains(&s.as_str()) || self.structs.contains(s)
            }
            _ => false,
        }
    }

    fn base_type(&mut self) -> PResult<Type> {
        let name = self.ident()?;
        Ok(match name.as_str() {
            "void" => Type::Void,
            "int" => Type::Int,
            "float" => Type::Float,
            "double" => Type::Double,
            "char" => Type::Char,
            "size_t" => Type::SizeT,
            "struct" => Type::Struct(self.ident()?),
            other if self.structs.contains(other) => Type::Struct(other.to_string()),
            other => return Err(self.err(format!("unknown type `{other}`"))),
        })
    }

    fn ty(&mut self) -> PResult<Type> {
        let mut t = self.base_type()?;
        let depth = self.depth;
        while *self.peek() == Tok::Star {
            // `Type::Ptr` nests too: each `*` is one level.
            self.enter()?;
            self.bump();
            t = t.ptr();
        }
        self.depth = depth;
        Ok(t)
    }

    // ------------------------------------------------------------------
    // Top level
    // ------------------------------------------------------------------

    fn program(&mut self) -> PResult<Program> {
        // Pre-scan struct names so they act as type names everywhere.
        for i in 0..self.toks.len().saturating_sub(1) {
            if let (Tok::Ident(k), Tok::Ident(n)) = (&self.toks[i].kind, &self.toks[i + 1].kind) {
                if k == "struct" {
                    self.structs.insert(n.clone());
                }
            }
        }
        let mut items = Vec::new();
        while *self.peek() != Tok::Eof {
            items.push(self.item()?);
        }
        Ok(Program { items })
    }

    fn item(&mut self) -> PResult<Item> {
        if let Tok::PragmaLine(text) = self.peek().clone() {
            self.bump();
            return Ok(Item::Pragma(parse_pragma(&text)));
        }
        // struct definition?
        if let Tok::Ident(s) = self.peek() {
            if s == "struct" {
                if let Tok::Ident(_) = self.peek2() {
                    // Could be a definition (`struct S { ... };`) or a
                    // type use (`struct S* f(...)`). Look one further.
                    let save = self.pos;
                    self.bump(); // struct
                    let name = self.ident()?;
                    if *self.peek() == Tok::LBrace {
                        return self.struct_def(name);
                    }
                    self.pos = save;
                }
            }
        }
        // Function or global: [qualifiers] type name ...
        let mut qualifiers = Vec::new();
        while let Tok::Ident(q) = self.peek() {
            if QUALIFIERS.contains(&q.as_str()) {
                let q = self.ident()?;
                qualifiers.push(match q.as_str() {
                    "__global__" => Qualifier::Global,
                    "__device__" => Qualifier::Device,
                    _ => Qualifier::Host,
                });
            } else {
                break;
            }
        }
        let ty = self.ty()?;
        let name = self.ident()?;
        if *self.peek() == Tok::LParen {
            self.bump();
            let mut params = Vec::new();
            if *self.peek() != Tok::RParen {
                loop {
                    let pt = self.ty()?;
                    let pn = self.ident()?;
                    params.push(Param { ty: pt, name: pn });
                    if !self.eat(Tok::Comma) {
                        break;
                    }
                }
            }
            self.expect(Tok::RParen)?;
            let body = if self.eat(Tok::Semi) {
                None
            } else {
                Some(self.block()?)
            };
            Ok(Item::Func(Func {
                qualifiers,
                ret: ty,
                name,
                params,
                body,
            }))
        } else {
            let init = if self.eat(Tok::Assign) {
                Some(self.expr()?)
            } else {
                None
            };
            self.expect(Tok::Semi)?;
            Ok(Item::Global(VarDecl {
                ty,
                name,
                init,
                span: Span::default(),
            }))
        }
    }

    fn struct_def(&mut self, name: String) -> PResult<Item> {
        self.expect(Tok::LBrace)?;
        let mut fields = Vec::new();
        while *self.peek() != Tok::RBrace {
            let ft = self.ty()?;
            let fname = self.ident()?;
            self.expect(Tok::Semi)?;
            fields.push((ft, fname));
        }
        self.expect(Tok::RBrace)?;
        self.expect(Tok::Semi)?;
        self.structs.insert(name.clone());
        Ok(Item::Struct(StructDef { name, fields }))
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn block(&mut self) -> PResult<Vec<Stmt>> {
        self.expect(Tok::LBrace)?;
        let mut stmts = Vec::new();
        while *self.peek() != Tok::RBrace {
            stmts.push(self.stmt()?);
        }
        self.expect(Tok::RBrace)?;
        Ok(stmts)
    }

    fn stmt(&mut self) -> PResult<Stmt> {
        self.nested(Self::stmt_inner)
    }

    fn stmt_inner(&mut self) -> PResult<Stmt> {
        if let Tok::PragmaLine(text) = self.peek().clone() {
            self.bump();
            return Ok(Stmt::Pragma(parse_pragma(&text)));
        }
        match self.peek().clone() {
            Tok::LBrace => Ok(Stmt::Block(self.block()?)),
            Tok::Ident(kw) => match kw.as_str() {
                "if" => self.if_stmt(),
                "while" => self.while_stmt(),
                "for" => self.for_stmt(),
                "return" => {
                    self.bump();
                    let e = if *self.peek() == Tok::Semi {
                        None
                    } else {
                        Some(self.expr()?)
                    };
                    self.expect(Tok::Semi)?;
                    Ok(Stmt::Return(e))
                }
                "break" => {
                    self.bump();
                    self.expect(Tok::Semi)?;
                    Ok(Stmt::Break)
                }
                "continue" => {
                    self.bump();
                    self.expect(Tok::Semi)?;
                    Ok(Stmt::Continue)
                }
                _ if self.is_type_start() && !self.next_is_expression_use() => {
                    let d = self.var_decl()?;
                    self.expect(Tok::Semi)?;
                    Ok(Stmt::Decl(d))
                }
                _ => {
                    let sp = self.span();
                    let e = self.expr()?;
                    self.expect(Tok::Semi)?;
                    Ok(Stmt::Expr(e, sp))
                }
            },
            _ => {
                let sp = self.span();
                let e = self.expr()?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Expr(e, sp))
            }
        }
    }

    /// A struct type name used as an expression (e.g. a variable that
    /// shadows... not supported; struct names always start declarations).
    fn next_is_expression_use(&self) -> bool {
        false
    }

    fn var_decl(&mut self) -> PResult<VarDecl> {
        let span = self.span();
        let ty = self.ty()?;
        let name = self.ident()?;
        let init = if self.eat(Tok::Assign) {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(VarDecl {
            ty,
            name,
            init,
            span,
        })
    }

    fn if_stmt(&mut self) -> PResult<Stmt> {
        self.bump(); // if
        self.expect(Tok::LParen)?;
        let cond = self.expr()?;
        self.expect(Tok::RParen)?;
        let then_branch = self.stmt_as_block()?;
        let else_branch = if let Tok::Ident(s) = self.peek() {
            if s == "else" {
                self.bump();
                self.stmt_as_block()?
            } else {
                Vec::new()
            }
        } else {
            Vec::new()
        };
        Ok(Stmt::If {
            cond,
            then_branch,
            else_branch,
        })
    }

    fn stmt_as_block(&mut self) -> PResult<Vec<Stmt>> {
        if *self.peek() == Tok::LBrace {
            self.block()
        } else {
            Ok(vec![self.stmt()?])
        }
    }

    fn while_stmt(&mut self) -> PResult<Stmt> {
        self.bump(); // while
        self.expect(Tok::LParen)?;
        let cond = self.expr()?;
        self.expect(Tok::RParen)?;
        let body = self.stmt_as_block()?;
        Ok(Stmt::While { cond, body })
    }

    fn for_stmt(&mut self) -> PResult<Stmt> {
        self.bump(); // for
        self.expect(Tok::LParen)?;
        let init = if self.eat(Tok::Semi) {
            None
        } else if self.is_type_start() {
            let d = self.var_decl()?;
            self.expect(Tok::Semi)?;
            Some(Box::new(Stmt::Decl(d)))
        } else {
            let sp = self.span();
            let e = self.expr()?;
            self.expect(Tok::Semi)?;
            Some(Box::new(Stmt::Expr(e, sp)))
        };
        let cond = if *self.peek() == Tok::Semi {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(Tok::Semi)?;
        let step = if *self.peek() == Tok::RParen {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(Tok::RParen)?;
        let body = self.stmt_as_block()?;
        Ok(Stmt::For {
            init,
            cond,
            step,
            body,
        })
    }

    // ------------------------------------------------------------------
    // Expressions (precedence climbing)
    // ------------------------------------------------------------------

    fn expr(&mut self) -> PResult<Expr> {
        self.nested(Self::assignment)
    }

    fn assignment(&mut self) -> PResult<Expr> {
        let lhs = self.conditional()?;
        let op = match self.peek() {
            Tok::Assign => AssignOp::Set,
            Tok::PlusAssign => AssignOp::Add,
            Tok::MinusAssign => AssignOp::Sub,
            Tok::StarAssign => AssignOp::Mul,
            Tok::SlashAssign => AssignOp::Div,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.nested(Self::assignment)?;
        Ok(Expr::Assign(op, Box::new(lhs), Box::new(rhs)))
    }

    fn conditional(&mut self) -> PResult<Expr> {
        let c = self.binary(0)?;
        if self.eat(Tok::Question) {
            let t = self.expr()?;
            self.expect(Tok::Colon)?;
            let e = self.nested(Self::conditional)?;
            Ok(Expr::Cond(Box::new(c), Box::new(t), Box::new(e)))
        } else {
            Ok(c)
        }
    }

    fn bin_op(&self) -> Option<(BinOp, u8)> {
        Some(match self.peek() {
            Tok::OrOr => (BinOp::Or, 1),
            Tok::AndAnd => (BinOp::And, 2),
            Tok::Pipe => (BinOp::BitOr, 3),
            Tok::Caret => (BinOp::BitXor, 4),
            Tok::Amp => (BinOp::BitAnd, 5),
            Tok::Eq => (BinOp::Eq, 6),
            Tok::Ne => (BinOp::Ne, 6),
            Tok::Lt => (BinOp::Lt, 7),
            Tok::Gt => (BinOp::Gt, 7),
            Tok::Le => (BinOp::Le, 7),
            Tok::Ge => (BinOp::Ge, 7),
            Tok::Shl => (BinOp::Shl, 8),
            Tok::Shr => (BinOp::Shr, 8),
            Tok::Plus => (BinOp::Add, 9),
            Tok::Minus => (BinOp::Sub, 9),
            Tok::Star => (BinOp::Mul, 10),
            Tok::Slash => (BinOp::Div, 10),
            Tok::Percent => (BinOp::Rem, 10),
            _ => return None,
        })
    }

    fn binary(&mut self, min_prec: u8) -> PResult<Expr> {
        let mut lhs = self.unary()?;
        let depth = self.depth;
        while let Some((op, prec)) = self.bin_op() {
            if prec < min_prec {
                break;
            }
            // Each operator adds a level to the left spine.
            self.enter()?;
            self.bump();
            let rhs = self.binary(prec + 1)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn unary(&mut self) -> PResult<Expr> {
        self.nested(Self::unary_inner)
    }

    fn unary_inner(&mut self) -> PResult<Expr> {
        match self.peek().clone() {
            Tok::Minus => {
                self.bump();
                Ok(Expr::Unary(UnOp::Neg, Box::new(self.unary()?)))
            }
            Tok::Not => {
                self.bump();
                Ok(Expr::Unary(UnOp::Not, Box::new(self.unary()?)))
            }
            Tok::Star => {
                self.bump();
                Ok(Expr::Unary(UnOp::Deref, Box::new(self.unary()?)))
            }
            Tok::Amp => {
                self.bump();
                Ok(Expr::Unary(UnOp::Addr, Box::new(self.unary()?)))
            }
            Tok::PlusPlus => {
                self.bump();
                Ok(Expr::Unary(UnOp::PreInc, Box::new(self.unary()?)))
            }
            Tok::MinusMinus => {
                self.bump();
                Ok(Expr::Unary(UnOp::PreDec, Box::new(self.unary()?)))
            }
            Tok::LParen if self.cast_ahead() => {
                self.bump();
                let t = self.ty()?;
                self.expect(Tok::RParen)?;
                Ok(Expr::Cast(t, Box::new(self.unary()?)))
            }
            Tok::Ident(s) if s == "sizeof" => {
                self.bump();
                self.expect(Tok::LParen)?;
                let e = if self.is_type_start() {
                    let t = self.ty()?;
                    Expr::SizeofType(t)
                } else {
                    Expr::SizeofExpr(Box::new(self.expr()?))
                };
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(s) if s == "new" => {
                // `new T` / `new T(init)` / `new T[count]` — lowered to a
                // builtin call the interpreter understands.
                self.bump();
                let t = self.ty()?;
                if self.eat(Tok::LBracket) {
                    let count = self.expr()?;
                    self.expect(Tok::RBracket)?;
                    Ok(Expr::Call(
                        "__new_array".into(),
                        vec![Expr::SizeofType(t), count],
                    ))
                } else if self.eat(Tok::LParen) {
                    let init = self.expr()?;
                    self.expect(Tok::RParen)?;
                    Ok(Expr::Call("__new".into(), vec![Expr::SizeofType(t), init]))
                } else {
                    Ok(Expr::Call(
                        "__new".into(),
                        vec![Expr::SizeofType(t), Expr::IntLit(0)],
                    ))
                }
            }
            _ => self.postfix(),
        }
    }

    /// Whether `( type )` follows (cast), as opposed to a parenthesized
    /// expression.
    fn cast_ahead(&self) -> bool {
        debug_assert_eq!(*self.peek(), Tok::LParen);
        match self.peek2() {
            Tok::Ident(s) => {
                s == "struct" || TYPE_KEYWORDS.contains(&s.as_str()) || self.structs.contains(s)
            }
            _ => false,
        }
    }

    fn postfix(&mut self) -> PResult<Expr> {
        let mut e = self.primary()?;
        let depth = self.depth;
        loop {
            match self.peek().clone() {
                Tok::LBracket => {
                    self.bump();
                    let i = self.expr()?;
                    self.expect(Tok::RBracket)?;
                    e = Expr::Index(Box::new(e), Box::new(i));
                }
                Tok::Dot => {
                    self.bump();
                    let f = self.ident()?;
                    e = Expr::Member(Box::new(e), f, false);
                }
                Tok::Arrow => {
                    self.bump();
                    let f = self.ident()?;
                    e = Expr::Member(Box::new(e), f, true);
                }
                Tok::PlusPlus => {
                    self.bump();
                    e = Expr::Postfix(PostOp::Inc, Box::new(e));
                }
                Tok::MinusMinus => {
                    self.bump();
                    e = Expr::Postfix(PostOp::Dec, Box::new(e));
                }
                _ => break,
            }
            // Like binary operators, each postfix operator deepens the
            // left spine.
            self.enter()?;
        }
        self.depth = depth;
        Ok(e)
    }

    fn primary(&mut self) -> PResult<Expr> {
        let (line, col) = self.pos();
        match self.bump() {
            Tok::Int(v) => Ok(Expr::IntLit(v)),
            Tok::Float(v) => Ok(Expr::FloatLit(v)),
            Tok::Str(s) => Ok(Expr::StrLit(s)),
            Tok::LParen => {
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(name) => {
                if *self.peek() == Tok::LaunchOpen {
                    self.bump();
                    let grid = self.expr()?;
                    self.expect(Tok::Comma)?;
                    let block = self.expr()?;
                    // Optional CUDA launch-config tail: `, shmem[, stream]`.
                    let shmem = if self.eat(Tok::Comma) {
                        Some(Box::new(self.expr()?))
                    } else {
                        None
                    };
                    let stream = if shmem.is_some() && self.eat(Tok::Comma) {
                        Some(Box::new(self.expr()?))
                    } else {
                        None
                    };
                    self.expect(Tok::LaunchClose)?;
                    self.expect(Tok::LParen)?;
                    let args = self.args()?;
                    Ok(Expr::KernelLaunch {
                        name,
                        grid: Box::new(grid),
                        block: Box::new(block),
                        shmem,
                        stream,
                        args,
                    })
                } else if *self.peek() == Tok::LParen {
                    self.bump();
                    let args = self.args()?;
                    Ok(Expr::Call(name, args))
                } else {
                    Ok(Expr::Ident(name))
                }
            }
            other => Err(ParseError {
                line,
                col,
                message: format!("unexpected token `{other}` in expression"),
            }),
        }
    }

    fn args(&mut self) -> PResult<Vec<Expr>> {
        let mut args = Vec::new();
        if *self.peek() != Tok::RParen {
            loop {
                args.push(self.expr()?);
                if !self.eat(Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        Ok(args)
    }
}

/// Parse the text of a `#pragma` line into an [`XplPragma`].
pub fn parse_pragma(text: &str) -> XplPragma {
    let t = text.trim();
    let Some(rest) = t.strip_prefix("pragma") else {
        return XplPragma::Other(t.to_string());
    };
    let rest = rest.trim();
    let Some(rest) = rest.strip_prefix("xpl") else {
        return XplPragma::Other(t.to_string());
    };
    let rest = rest.trim();
    if let Some(target) = rest.strip_prefix("replace") {
        return XplPragma::Replace {
            target: target.trim().to_string(),
        };
    }
    if let Some(d) = rest.strip_prefix("diagnostic") {
        let d = d.trim();
        // fn(verbatim...; expanded...)
        if let Some(open) = d.find('(') {
            let func = d[..open].trim().to_string();
            let inner = d[open + 1..].trim_end_matches(')').trim();
            let (verb, exp) = match inner.split_once(';') {
                Some((v, e)) => (v, e),
                None => (inner, ""),
            };
            let split = |s: &str| -> Vec<String> {
                s.split(',')
                    .map(|x| x.trim().to_string())
                    .filter(|x| !x.is_empty())
                    .collect()
            };
            return XplPragma::Diagnostic {
                func,
                verbatim: split(verb),
                expanded: split(exp),
            };
        }
    }
    XplPragma::Other(t.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_function() {
        let p = parse("int add(int a, int b) { return a + b; }").unwrap();
        let f = p.func("add").unwrap();
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.ret, Type::Int);
        assert_eq!(
            f.body.as_ref().unwrap()[0],
            Stmt::Return(Some(Expr::Binary(
                BinOp::Add,
                Box::new(Expr::ident("a")),
                Box::new(Expr::ident("b"))
            )))
        );
    }

    #[test]
    fn parses_kernel_and_launch() {
        let src = r#"
            __global__ void init(double* p, int n) {
                int i = threadIdx.x;
                if (i < n) { p[i] = 0.0; }
            }
            int main() {
                double* p;
                cudaMallocManaged((void**)&p, 100 * sizeof(double));
                init<<<1, 100>>>(p, 100);
                return 0;
            }
        "#;
        let p = parse(src).unwrap();
        assert!(p.func("init").unwrap().is_kernel());
        let main = p.func("main").unwrap();
        let body = main.body.as_ref().unwrap();
        assert!(matches!(&body[0], Stmt::Decl(d) if d.ty == Type::Double.ptr()));
        assert!(matches!(
            &body[2],
            Stmt::Expr(Expr::KernelLaunch { name, args, .. }, _) if name == "init" && args.len() == 2
        ));
    }

    #[test]
    fn parses_struct_and_member_access() {
        let src = r#"
            struct Pair { int* first; int* second; };
            int main() {
                Pair* a;
                a->first[0] = 1;
                return a->first[0];
            }
        "#;
        let p = parse(src).unwrap();
        assert_eq!(p.struct_def("Pair").unwrap().fields.len(), 2);
        let main = p.func("main").unwrap();
        let body = main.body.as_ref().unwrap();
        assert!(matches!(
            &body[1],
            Stmt::Expr(Expr::Assign(AssignOp::Set, lhs, _), _)
                if matches!(&**lhs, Expr::Index(b, _) if matches!(&**b, Expr::Member(_, f, true) if f == "first"))
        ));
    }

    #[test]
    fn precedence_and_conditional() {
        let e = parse_expr("a + b * c < d ? x : y").unwrap();
        match e {
            Expr::Cond(c, _, _) => match *c {
                Expr::Binary(BinOp::Lt, lhs, _) => match *lhs {
                    Expr::Binary(BinOp::Add, _, mul) => {
                        assert!(matches!(*mul, Expr::Binary(BinOp::Mul, _, _)));
                    }
                    other => panic!("bad lhs {other:?}"),
                },
                other => panic!("bad cond {other:?}"),
            },
            other => panic!("not a conditional: {other:?}"),
        }
    }

    #[test]
    fn casts_and_sizeof() {
        assert_eq!(
            parse_expr("(double)x").unwrap(),
            Expr::Cast(Type::Double, Box::new(Expr::ident("x")))
        );
        assert_eq!(
            parse_expr("sizeof(double)").unwrap(),
            Expr::SizeofType(Type::Double)
        );
        assert!(matches!(
            parse_expr("sizeof(x + 1)").unwrap(),
            Expr::SizeofExpr(_)
        ));
        assert_eq!(
            parse_expr("(void**)&p").unwrap(),
            Expr::Cast(
                Type::Void.ptr().ptr(),
                Box::new(Expr::Unary(UnOp::Addr, Box::new(Expr::ident("p"))))
            )
        );
    }

    #[test]
    fn increments_and_compound_assign() {
        assert!(matches!(
            parse_expr("++(*p)").unwrap(),
            Expr::Unary(UnOp::PreInc, _)
        ));
        assert!(matches!(
            parse_expr("p[i]++").unwrap(),
            Expr::Postfix(PostOp::Inc, _)
        ));
        assert!(matches!(
            parse_expr("a += b").unwrap(),
            Expr::Assign(AssignOp::Add, _, _)
        ));
    }

    #[test]
    fn for_while_if_statements() {
        let src = r#"
            int main() {
                int s = 0;
                for (int i = 0; i < 10; i++) { s += i; }
                while (s > 0) { s = s - 2; break; }
                if (s == 0) { s = 1; } else { s = 2; }
                return s;
            }
        "#;
        let p = parse(src).unwrap();
        let body = p.func("main").unwrap().body.as_ref().unwrap();
        assert!(matches!(&body[1], Stmt::For { .. }));
        assert!(matches!(&body[2], Stmt::While { .. }));
        assert!(matches!(&body[3], Stmt::If { .. }));
    }

    #[test]
    fn pragma_parsing() {
        assert_eq!(
            parse_pragma("pragma xpl replace cudaMallocManaged"),
            XplPragma::Replace {
                target: "cudaMallocManaged".into()
            }
        );
        assert_eq!(
            parse_pragma("pragma xpl diagnostic tracePrint(out; a, z)"),
            XplPragma::Diagnostic {
                func: "tracePrint".into(),
                verbatim: vec!["out".into()],
                expanded: vec!["a".into(), "z".into()],
            }
        );
        assert_eq!(
            parse_pragma("include <xplacer.h>"),
            XplPragma::Other("include <xplacer.h>".into())
        );
    }

    #[test]
    fn pragmas_inside_functions() {
        let src = "int main() {\n#pragma xpl diagnostic trc(o; p)\nreturn 0; }";
        let p = parse(src).unwrap();
        let body = p.func("main").unwrap().body.as_ref().unwrap();
        assert!(matches!(
            &body[0],
            Stmt::Pragma(XplPragma::Diagnostic { .. })
        ));
    }

    #[test]
    fn new_expressions_lower_to_builtins() {
        assert_eq!(
            parse_expr("new int(2)").unwrap(),
            Expr::Call(
                "__new".into(),
                vec![Expr::SizeofType(Type::Int), Expr::IntLit(2)]
            )
        );
        assert!(matches!(
            parse_expr("new double[n]").unwrap(),
            Expr::Call(name, _) if name == "__new_array"
        ));
    }

    #[test]
    fn error_reports_line() {
        let err = parse("int main() {\n  int x = ;\n}").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn error_reports_line_and_column() {
        // The offending `;` sits at line 2, column 11.
        let err = parse("int main() {\n  int x = ;\n}").unwrap_err();
        assert_eq!((err.line, err.col), (2, 11));
        assert!(err.to_string().starts_with("parse error at line 2:11: "));
        // Lex errors keep their position through the From conversion.
        let err = parse("int main() {\n  int x = `;\n}").unwrap_err();
        assert_eq!((err.line, err.col), (2, 11));
    }

    #[test]
    fn nesting_past_the_limit_is_a_spanned_error() {
        let main = |body: String| format!("int main() {{\n{body}\nreturn 0; }}");
        let bombs = [
            main(format!(
                "int x = {}1{};",
                "(".repeat(20_000),
                ")".repeat(20_000)
            )),
            main(format!("{}{}", "{".repeat(20_000), "}".repeat(20_000))),
            main(format!("int x = {}1;", "-".repeat(50_000))),
            main(format!("int x = 1{};", "+1".repeat(100_000))),
            main(format!("int x = a{};", "[0]".repeat(100_000))),
            main(format!("int{} p;", "*".repeat(100_000))),
        ];
        for src in bombs {
            let err = parse(&src).unwrap_err();
            assert_eq!(err.line, 2, "{err}");
            assert!(
                err.message == format!("nesting deeper than {MAX_DEPTH} levels"),
                "{err}"
            );
        }
    }

    #[test]
    fn shift_vs_launch_disambiguation() {
        // `a << b` parses as a shift, not a launch.
        assert!(matches!(
            parse_expr("a << 2").unwrap(),
            Expr::Binary(BinOp::Shl, _, _)
        ));
    }
}
