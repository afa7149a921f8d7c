//! Recursive-descent parser for the Verilog subset.

use crate::ast::*;
use crate::error::CompileError;
use crate::lexer::{SpannedTok, Tok};
use eraser_ir::{BinaryOp, EdgeKind, UnaryOp};

/// Parses a token stream into a [`SourceUnit`].
///
/// # Errors
///
/// Returns a [`CompileError`] pointing at the offending line for any syntax
/// outside the supported subset.
pub fn parse(tokens: Vec<SpannedTok>) -> Result<SourceUnit, CompileError> {
    let mut p = Parser { tokens, pos: 0 };
    let mut modules = Vec::new();
    while !p.at_eof() {
        modules.push(p.module()?);
    }
    Ok(SourceUnit { modules })
}

struct Parser {
    tokens: Vec<SpannedTok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos].line
    }

    fn col(&self) -> u32 {
        self.tokens[self.pos].col
    }

    /// A diagnostic pointing at the current token's exact line and column.
    fn error_here(&self, message: impl Into<String>) -> CompileError {
        CompileError::at_col(self.line(), self.col(), message)
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), Tok::Eof)
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].tok.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok) -> Result<(), CompileError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.error_here(format!("expected {t}, found {}", self.peek())))
        }
    }

    fn is_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.is_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), CompileError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.error_here(format!("expected `{kw}`, found {}", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<String, CompileError> {
        match self.peek().clone() {
            Tok::Ident(s) if !is_reserved(&s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.error_here(format!("expected identifier, found {other}"))),
        }
    }

    // ---- modules ----

    fn module(&mut self) -> Result<ModuleDecl, CompileError> {
        let line = self.line();
        self.expect_kw("module")?;
        let name = self.ident()?;
        let mut header_params = Vec::new();
        if self.eat(&Tok::Hash) {
            self.expect(&Tok::LParen)?;
            loop {
                self.expect_kw("parameter")?;
                let pname = self.ident()?;
                self.expect(&Tok::Assign)?;
                let value = self.expr()?;
                header_params.push((pname, value));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RParen)?;
        }
        self.expect(&Tok::LParen)?;
        let mut ports = Vec::new();
        if !self.eat(&Tok::RParen) {
            // Direction, kind and range carry over across commas until a new
            // declaration starts, as in IEEE 1364 ANSI port lists.
            let mut dir = None;
            let mut kind = AstNetKind::Wire;
            let mut carry_range: Option<(AstExpr, AstExpr)> = None;
            loop {
                let (pline, pcol) = (self.line(), self.col());
                let mut new_decl = false;
                if self.eat_kw("input") {
                    dir = Some(AstPortDir::Input);
                    kind = AstNetKind::Wire;
                    new_decl = true;
                } else if self.eat_kw("output") {
                    dir = Some(AstPortDir::Output);
                    kind = AstNetKind::Wire;
                    new_decl = true;
                }
                if self.eat_kw("wire") {
                    kind = AstNetKind::Wire;
                    new_decl = true;
                } else if self.eat_kw("reg") {
                    kind = AstNetKind::Reg;
                    new_decl = true;
                }
                let range = self.opt_range()?;
                if range.is_some() {
                    carry_range = range;
                } else if new_decl {
                    carry_range = None;
                }
                let pname = self.ident()?;
                let dir = dir.ok_or_else(|| {
                    CompileError::at_col(
                        pline,
                        pcol,
                        "port is missing a direction (`input`/`output`)",
                    )
                })?;
                ports.push(PortDecl {
                    dir,
                    kind,
                    range: carry_range.clone(),
                    name: pname,
                    line: pline,
                });
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RParen)?;
        }
        self.expect(&Tok::Semi)?;

        let mut items = Vec::new();
        while !self.eat_kw("endmodule") {
            if self.at_eof() {
                return Err(self.error_here("missing `endmodule`"));
            }
            items.push(self.item()?);
        }
        Ok(ModuleDecl {
            name,
            header_params,
            ports,
            items,
            line,
        })
    }

    fn opt_range(&mut self) -> Result<Option<(AstExpr, AstExpr)>, CompileError> {
        if self.eat(&Tok::LBracket) {
            let msb = self.expr()?;
            self.expect(&Tok::Colon)?;
            let lsb = self.expr()?;
            self.expect(&Tok::RBracket)?;
            Ok(Some((msb, lsb)))
        } else {
            Ok(None)
        }
    }

    fn item(&mut self) -> Result<Item, CompileError> {
        let line = self.line();
        if self.is_kw("wire") || self.is_kw("reg") {
            let kind = if self.eat_kw("wire") {
                AstNetKind::Wire
            } else {
                self.expect_kw("reg")?;
                AstNetKind::Reg
            };
            let range = self.opt_range()?;
            let mut names = vec![self.ident()?];
            // `wire [w:0] name = expr;` — declaration with initializer
            // (continuous assignment), single-name form only.
            if self.peek() == &Tok::Assign {
                self.bump();
                let init = self.expr()?;
                self.expect(&Tok::Semi)?;
                return Ok(Item::Net {
                    kind,
                    range,
                    names,
                    init: Some(init),
                    line,
                });
            }
            while self.eat(&Tok::Comma) {
                names.push(self.ident()?);
            }
            self.expect(&Tok::Semi)?;
            return Ok(Item::Net {
                kind,
                range,
                names,
                init: None,
                line,
            });
        }
        if self.eat_kw("integer") {
            let mut names = vec![self.ident()?];
            while self.eat(&Tok::Comma) {
                names.push(self.ident()?);
            }
            self.expect(&Tok::Semi)?;
            return Ok(Item::Integer { names, line });
        }
        if self.is_kw("parameter") || self.is_kw("localparam") {
            let local = self.eat_kw("localparam");
            if !local {
                self.expect_kw("parameter")?;
            }
            // Only single-name parameter items reach here (lists are rare);
            // support comma lists anyway by expanding later.
            let name = self.ident()?;
            self.expect(&Tok::Assign)?;
            let value = self.expr()?;
            self.expect(&Tok::Semi)?;
            return Ok(Item::Param {
                local,
                name,
                value,
                line,
            });
        }
        if self.eat_kw("assign") {
            let lhs = self.ident()?;
            self.expect(&Tok::Assign)?;
            let rhs = self.expr()?;
            self.expect(&Tok::Semi)?;
            return Ok(Item::Assign { lhs, rhs, line });
        }
        if self.eat_kw("always") {
            self.expect(&Tok::At)?;
            // `@*` is IEEE 1364-2001's short form of `@(*)`.
            let sens = if self.eat(&Tok::Star) {
                AstSens::Star
            } else {
                self.expect(&Tok::LParen)?;
                let sens = self.sensitivity()?;
                self.expect(&Tok::RParen)?;
                sens
            };
            let body = self.stmt()?;
            return Ok(Item::Always { sens, body, line });
        }
        if self.is_kw("initial") {
            return Err(self
                .error_here("`initial` blocks are not supported; drive reset from the testbench"));
        }
        // Otherwise: instantiation `Mod #(..)? inst ( .p(e), ... );`
        let module = self.ident()?;
        let mut params = Vec::new();
        if self.eat(&Tok::Hash) {
            self.expect(&Tok::LParen)?;
            loop {
                self.expect(&Tok::Dot)?;
                let pname = self.ident()?;
                self.expect(&Tok::LParen)?;
                let value = self.expr()?;
                self.expect(&Tok::RParen)?;
                params.push((pname, value));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RParen)?;
        }
        let name = self.ident()?;
        self.expect(&Tok::LParen)?;
        let mut conns = Vec::new();
        if !self.eat(&Tok::RParen) {
            loop {
                self.expect(&Tok::Dot)?;
                let pname = self.ident()?;
                self.expect(&Tok::LParen)?;
                let value = if self.peek() == &Tok::RParen {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&Tok::RParen)?;
                conns.push((pname, value));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RParen)?;
        }
        self.expect(&Tok::Semi)?;
        Ok(Item::Instance {
            module,
            name,
            params,
            conns,
            line,
        })
    }

    fn sensitivity(&mut self) -> Result<AstSens, CompileError> {
        if self.eat(&Tok::Star) {
            return Ok(AstSens::Star);
        }
        if self.is_kw("posedge") || self.is_kw("negedge") {
            let mut edges = Vec::new();
            loop {
                let kind = if self.eat_kw("posedge") {
                    EdgeKind::Pos
                } else {
                    self.expect_kw("negedge")?;
                    EdgeKind::Neg
                };
                edges.push((kind, self.ident()?));
                if !(self.eat_kw("or") || self.eat(&Tok::Comma)) {
                    break;
                }
            }
            return Ok(AstSens::Edges(edges));
        }
        let mut sigs = vec![self.ident()?];
        while self.eat_kw("or") || self.eat(&Tok::Comma) {
            sigs.push(self.ident()?);
        }
        Ok(AstSens::Level(sigs))
    }

    // ---- statements ----

    fn stmt(&mut self) -> Result<AstStmt, CompileError> {
        if self.eat_kw("begin") {
            let mut stmts = Vec::new();
            while !self.eat_kw("end") {
                if self.at_eof() {
                    return Err(self.error_here("missing `end`"));
                }
                stmts.push(self.stmt()?);
            }
            return Ok(AstStmt::Block(stmts));
        }
        if self.eat_kw("if") {
            self.expect(&Tok::LParen)?;
            let cond = self.expr()?;
            self.expect(&Tok::RParen)?;
            let then_s = Box::new(self.stmt()?);
            let else_s = if self.eat_kw("else") {
                Some(Box::new(self.stmt()?))
            } else {
                None
            };
            return Ok(AstStmt::If {
                cond,
                then_s,
                else_s,
            });
        }
        if self.is_kw("case") || self.is_kw("casez") {
            let wildcard = self.eat_kw("casez");
            if !wildcard {
                self.expect_kw("case")?;
            }
            self.expect(&Tok::LParen)?;
            let scrutinee = self.expr()?;
            self.expect(&Tok::RParen)?;
            let mut arms = Vec::new();
            let mut default = None;
            while !self.eat_kw("endcase") {
                if self.at_eof() {
                    return Err(self.error_here("missing `endcase`"));
                }
                if self.eat_kw("default") {
                    self.eat(&Tok::Colon);
                    default = Some(Box::new(self.stmt()?));
                    continue;
                }
                let mut labels = vec![self.expr()?];
                while self.eat(&Tok::Comma) {
                    labels.push(self.expr()?);
                }
                self.expect(&Tok::Colon)?;
                let body = self.stmt()?;
                arms.push((labels, body));
            }
            return Ok(AstStmt::Case {
                scrutinee,
                arms,
                default,
                wildcard,
            });
        }
        if self.eat_kw("for") {
            self.expect(&Tok::LParen)?;
            let init = Box::new(self.assignment(true)?);
            self.expect(&Tok::Semi)?;
            let cond = self.expr()?;
            self.expect(&Tok::Semi)?;
            let step = Box::new(self.assignment(false)?);
            self.expect(&Tok::RParen)?;
            let body = Box::new(self.stmt()?);
            return Ok(AstStmt::For {
                init,
                cond,
                step,
                body,
            });
        }
        if self.eat(&Tok::Semi) {
            return Ok(AstStmt::Nop);
        }
        let st = self.assignment(true)?;
        self.expect(&Tok::Semi)?;
        Ok(st)
    }

    /// Parses `lvalue = expr` or `lvalue <= expr` (no trailing semicolon).
    fn assignment(&mut self, _allow_nonblocking: bool) -> Result<AstStmt, CompileError> {
        let line = self.line();
        let base = self.ident()?;
        let lhs = if self.eat(&Tok::LBracket) {
            let first = self.expr()?;
            if self.eat(&Tok::Colon) {
                let lo = self.expr()?;
                self.expect(&Tok::RBracket)?;
                AstLValue::Part {
                    base,
                    hi: first,
                    lo,
                }
            } else if self.eat(&Tok::PlusColon) {
                let width = self.expr()?;
                self.expect(&Tok::RBracket)?;
                AstLValue::IndexedPart {
                    base,
                    start: first,
                    width,
                }
            } else {
                self.expect(&Tok::RBracket)?;
                AstLValue::Bit { base, index: first }
            }
        } else {
            AstLValue::Ident(base)
        };
        let blocking = if self.eat(&Tok::Assign) {
            true
        } else if self.eat(&Tok::LtEq) {
            false
        } else {
            return Err(self.error_here(format!("expected `=` or `<=`, found {}", self.peek())));
        };
        let rhs = self.expr()?;
        Ok(AstStmt::Assign {
            lhs,
            rhs,
            blocking,
            line,
        })
    }

    // ---- expressions (precedence climbing) ----

    fn expr(&mut self) -> Result<AstExpr, CompileError> {
        let cond = self.binary_expr(0)?;
        if self.eat(&Tok::Question) {
            let then_e = self.expr()?;
            self.expect(&Tok::Colon)?;
            let else_e = self.expr()?;
            Ok(AstExpr::Ternary(
                Box::new(cond),
                Box::new(then_e),
                Box::new(else_e),
            ))
        } else {
            Ok(cond)
        }
    }

    fn binary_expr(&mut self, min_prec: u8) -> Result<AstExpr, CompileError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let (op, prec) = match self.peek() {
                Tok::PipePipe => (BinaryOp::LogicalOr, 1),
                Tok::AmpAmp => (BinaryOp::LogicalAnd, 2),
                Tok::Pipe => (BinaryOp::Or, 3),
                Tok::Caret => (BinaryOp::Xor, 4),
                Tok::TildeCaret => (BinaryOp::Xnor, 4),
                Tok::Amp => (BinaryOp::And, 5),
                Tok::EqEq => (BinaryOp::Eq, 6),
                Tok::BangEq => (BinaryOp::Ne, 6),
                Tok::EqEqEq => (BinaryOp::CaseEq, 6),
                Tok::BangEqEq => (BinaryOp::CaseNe, 6),
                Tok::Lt => (BinaryOp::Lt, 7),
                Tok::LtEq => (BinaryOp::Le, 7),
                Tok::Gt => (BinaryOp::Gt, 7),
                Tok::GtEq => (BinaryOp::Ge, 7),
                Tok::Shl => (BinaryOp::Shl, 8),
                Tok::Shr => (BinaryOp::Shr, 8),
                // The subset has no signed types, so `>>>` fills with
                // zeros like `>>` (IEEE 1364-2005 §5.1.12).
                Tok::AShr => (BinaryOp::Shr, 8),
                Tok::Plus => (BinaryOp::Add, 9),
                Tok::Minus => (BinaryOp::Sub, 9),
                Tok::Star => (BinaryOp::Mul, 10),
                Tok::Slash => (BinaryOp::Div, 10),
                Tok::Percent => (BinaryOp::Rem, 10),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.binary_expr(prec + 1)?;
            lhs = AstExpr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<AstExpr, CompileError> {
        let op = match self.peek() {
            Tok::Bang => Some(UnaryOp::LogicalNot),
            Tok::Tilde => Some(UnaryOp::Not),
            Tok::Minus => Some(UnaryOp::Neg),
            Tok::Amp => Some(UnaryOp::RedAnd),
            Tok::Pipe => Some(UnaryOp::RedOr),
            Tok::Caret => Some(UnaryOp::RedXor),
            Tok::Plus => {
                self.bump();
                return self.unary_expr();
            }
            // Reduction XNOR (`~^` or `^~`): the complement of the
            // reduction XOR, as `~&` and `~|` are of theirs.
            Tok::TildeCaret => {
                self.bump();
                let red = AstExpr::Unary(UnaryOp::RedXor, Box::new(self.unary_expr()?));
                return Ok(AstExpr::Unary(UnaryOp::Not, Box::new(red)));
            }
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let e = self.unary_expr()?;
            return Ok(AstExpr::Unary(op, Box::new(e)));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<AstExpr, CompileError> {
        let line = self.line();
        match self.peek().clone() {
            Tok::Number(raw) => {
                self.bump();
                Ok(AstExpr::Literal(raw, line))
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Tok::LBrace => {
                self.bump();
                let first = self.expr()?;
                if self.eat(&Tok::LBrace) {
                    // Replication {n{v}}, or of a list {n{a, b}}.
                    let mut parts = vec![self.expr()?];
                    while self.eat(&Tok::Comma) {
                        parts.push(self.expr()?);
                    }
                    self.expect(&Tok::RBrace)?;
                    self.expect(&Tok::RBrace)?;
                    let inner = match parts.len() {
                        1 => parts.remove(0),
                        _ => AstExpr::Concat(parts),
                    };
                    return Ok(AstExpr::Replicate(Box::new(first), Box::new(inner)));
                }
                let mut parts = vec![first];
                while self.eat(&Tok::Comma) {
                    parts.push(self.expr()?);
                }
                self.expect(&Tok::RBrace)?;
                Ok(AstExpr::Concat(parts))
            }
            Tok::Ident(_) => {
                let base = self.ident()?;
                if self.eat(&Tok::LBracket) {
                    let first = self.expr()?;
                    if self.eat(&Tok::Colon) {
                        let lo = self.expr()?;
                        self.expect(&Tok::RBracket)?;
                        Ok(AstExpr::Part {
                            base,
                            hi: Box::new(first),
                            lo: Box::new(lo),
                            line,
                        })
                    } else if self.eat(&Tok::PlusColon) {
                        let width = self.expr()?;
                        self.expect(&Tok::RBracket)?;
                        Ok(AstExpr::IndexedPart {
                            base,
                            start: Box::new(first),
                            width: Box::new(width),
                            line,
                        })
                    } else {
                        self.expect(&Tok::RBracket)?;
                        Ok(AstExpr::Bit {
                            base,
                            index: Box::new(first),
                            line,
                        })
                    }
                } else {
                    Ok(AstExpr::Ident(base, line))
                }
            }
            other => Err(self.error_here(format!("expected expression, found {other}"))),
        }
    }
}

/// Keywords that cannot be identifiers.
fn is_reserved(s: &str) -> bool {
    matches!(
        s,
        "module"
            | "endmodule"
            | "input"
            | "output"
            | "wire"
            | "reg"
            | "integer"
            | "assign"
            | "always"
            | "begin"
            | "end"
            | "if"
            | "else"
            | "case"
            | "casez"
            | "endcase"
            | "default"
            | "posedge"
            | "negedge"
            | "or"
            | "for"
            | "parameter"
            | "localparam"
            | "initial"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> SourceUnit {
        parse(lex(src).unwrap()).unwrap()
    }

    #[test]
    fn minimal_module() {
        let u = parse_src("module m(); endmodule");
        assert_eq!(u.modules.len(), 1);
        assert_eq!(u.modules[0].name, "m");
        assert!(u.modules[0].ports.is_empty());
    }

    #[test]
    fn ansi_ports_with_carryover() {
        let u =
            parse_src("module m(input wire clk, input [7:0] a, b, output reg [3:0] q); endmodule");
        let ports = &u.modules[0].ports;
        assert_eq!(ports.len(), 4);
        assert_eq!(ports[0].name, "clk");
        assert_eq!(ports[1].name, "a");
        assert_eq!(ports[2].name, "b");
        assert_eq!(ports[2].dir, AstPortDir::Input);
        assert!(ports[2].range.is_some(), "range carries over across commas");
        assert_eq!(ports[3].kind, AstNetKind::Reg);
        assert_eq!(ports[3].dir, AstPortDir::Output);
    }

    #[test]
    fn declarations_and_assigns() {
        let u = parse_src(
            "module m(input wire a);
               wire [7:0] x, y;
               reg r;
               integer i;
               localparam W = 8;
               parameter D = 4;
               assign x = a ? y : 8'h00;
             endmodule",
        );
        assert_eq!(u.modules[0].items.len(), 6);
    }

    #[test]
    fn always_edge_and_star() {
        let u = parse_src(
            "module m(input wire clk, input wire rst_n);
               reg q;
               always @(posedge clk or negedge rst_n) q <= 1'b0;
               always @(*) q <= 1'b1;
             endmodule",
        );
        let items = &u.modules[0].items;
        match &items[1] {
            Item::Always {
                sens: AstSens::Edges(e),
                ..
            } => {
                assert_eq!(e.len(), 2);
                assert_eq!(e[0].0, EdgeKind::Pos);
                assert_eq!(e[1].0, EdgeKind::Neg);
            }
            other => panic!("expected edge always, got {other:?}"),
        }
        assert!(matches!(
            &items[2],
            Item::Always {
                sens: AstSens::Star,
                ..
            }
        ));
    }

    #[test]
    fn always_star_without_parens() {
        let u = parse_src(
            "module m(input wire clk, input wire [3:0] a, output reg [3:0] y);
               always @* y = a;
             endmodule",
        );
        assert!(matches!(
            &u.modules[0].items[0],
            Item::Always {
                sens: AstSens::Star,
                ..
            }
        ));
    }

    #[test]
    fn statements() {
        let u = parse_src(
            "module m(input wire c);
               reg [7:0] q; integer i;
               always @(*) begin
                 if (c) q = 8'd1; else q = 8'd2;
                 case (q)
                   8'd1, 8'd2: q = 8'd3;
                   default: q = 8'd0;
                 endcase
                 casez (q)
                   8'b1???????: q = 0;
                 endcase
                 for (i = 0; i < 4; i = i + 1) q[i] = c;
                 q[3:0] = 4'h5;
                 q[i +: 2] = 2'b01;
               end
             endmodule",
        );
        match &u.modules[0].items[2] {
            Item::Always {
                body: AstStmt::Block(stmts),
                ..
            } => {
                assert_eq!(stmts.len(), 6);
                assert!(matches!(stmts[0], AstStmt::If { .. }));
                assert!(matches!(
                    stmts[1],
                    AstStmt::Case {
                        wildcard: false,
                        ..
                    }
                ));
                assert!(matches!(stmts[2], AstStmt::Case { wildcard: true, .. }));
                assert!(matches!(stmts[3], AstStmt::For { .. }));
                assert!(matches!(
                    stmts[4],
                    AstStmt::Assign {
                        lhs: AstLValue::Part { .. },
                        ..
                    }
                ));
                assert!(matches!(
                    stmts[5],
                    AstStmt::Assign {
                        lhs: AstLValue::IndexedPart { .. },
                        ..
                    }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn expression_precedence() {
        let u = parse_src("module m(input a); wire x; assign x = 1 + 2 * 3 == 7 && 1; endmodule");
        match &u.modules[0].items[1] {
            Item::Assign { rhs, .. } => {
                // ((1 + (2*3)) == 7) && 1
                match rhs {
                    AstExpr::Binary(BinaryOp::LogicalAnd, l, _) => match l.as_ref() {
                        AstExpr::Binary(BinaryOp::Eq, ll, _) => {
                            assert!(matches!(ll.as_ref(), AstExpr::Binary(BinaryOp::Add, ..)));
                        }
                        other => panic!("expected Eq, got {other:?}"),
                    },
                    other => panic!("expected LogicalAnd at root, got {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ternary_binds_loosest_and_right_assoc() {
        let u = parse_src("module m(input a); wire x; assign x = a ? 1 : a ? 2 : 3; endmodule");
        match &u.modules[0].items[1] {
            Item::Assign {
                rhs: AstExpr::Ternary(_, _, e),
                ..
            } => {
                assert!(matches!(e.as_ref(), AstExpr::Ternary(..)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn concat_and_replicate() {
        let u =
            parse_src("module m(input a); wire [7:0] x; assign x = {a, {3{a}}, 4'h0}; endmodule");
        match &u.modules[0].items[1] {
            Item::Assign {
                rhs: AstExpr::Concat(parts),
                ..
            } => {
                assert_eq!(parts.len(), 3);
                assert!(matches!(parts[1], AstExpr::Replicate(..)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn instance_with_params() {
        let u = parse_src(
            "module m(input a);
               wire y;
               sub #(.W(8), .D(2)) u0 (.in(a), .out(y), .nc());
             endmodule",
        );
        match &u.modules[0].items[1] {
            Item::Instance {
                module,
                name,
                params,
                conns,
                ..
            } => {
                assert_eq!(module, "sub");
                assert_eq!(name, "u0");
                assert_eq!(params.len(), 2);
                assert_eq!(conns.len(), 3);
                assert!(conns[2].1.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unary_reductions() {
        let u = parse_src("module m(input [3:0] a); wire x; assign x = &a | ^a; endmodule");
        match &u.modules[0].items[1] {
            Item::Assign {
                rhs: AstExpr::Binary(BinaryOp::Or, l, r),
                ..
            } => {
                assert!(matches!(l.as_ref(), AstExpr::Unary(UnaryOp::RedAnd, _)));
                assert!(matches!(r.as_ref(), AstExpr::Unary(UnaryOp::RedXor, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn reduction_xnor_in_both_spellings() {
        for op in ["~^", "^~"] {
            let src =
                format!("module m(input wire [3:0] a, output wire y); assign y = {op}a; endmodule");
            match &parse_src(&src).modules[0].items[0] {
                Item::Assign {
                    rhs: AstExpr::Unary(UnaryOp::Not, e),
                    ..
                } => assert!(
                    matches!(e.as_ref(), AstExpr::Unary(UnaryOp::RedXor, _)),
                    "{op}"
                ),
                other => panic!("{op}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn errors_are_reported_with_lines() {
        let err = parse(lex("module m(input a)\nwire x;").unwrap()).unwrap_err();
        assert!(err.line >= 1);
        assert!(parse(lex("module m(); initial begin end endmodule").unwrap()).is_err());
        assert!(parse(lex("module m(input begin); endmodule").unwrap()).is_err());
    }
}
