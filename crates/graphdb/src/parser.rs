//! Recursive-descent parser for the Cypher-like language.

use crate::ast::*;
use crate::lexer::{lex, LexError, Tok};
use create_docstore::Value;
use std::fmt;

/// How deep a query may nest: a path pattern has at most this many
/// hops, and a `WHERE` clause at most this many `NOT`s and parentheses
/// around any comparison and `NOT`, `AND` and `OR` operators above any
/// comparison in the parsed tree. The parser, the executor's matching and
/// evaluation and the tree's drop each recurse once a level.
pub const MAX_DEPTH: usize = 128;

/// Parse errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// Tokenization failed.
    Lex(LexError),
    /// Grammar violation.
    Syntax(String),
    /// A path of more hops, or a `WHERE` clause nested deeper, than
    /// [`MAX_DEPTH`].
    TooDeep,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "{e}"),
            ParseError::Syntax(m) => write!(f, "syntax error: {m}"),
            ParseError::TooDeep => write!(f, "query nests deeper than {MAX_DEPTH}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses one query.
pub fn parse_query(input: &str) -> Result<Query, ParseError> {
    let toks = lex(input).map_err(ParseError::Lex)?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    let q = p.query()?;
    if p.pos != p.toks.len() {
        return Err(ParseError::Syntax(format!(
            "unexpected trailing tokens at {:?}",
            p.peek()
        )));
    }
    Ok(q)
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    /// `NOT`s and parentheses around the expression being parsed.
    depth: usize,
}

/// An expression and the number of operators on its deepest path.
type Nested = (Expr, usize);

/// `depth + 1`, refused past [`MAX_DEPTH`]: one more `NOT` or
/// parenthesis around what is parsed next, or one more operator over an
/// operand `depth` deep.
fn deeper(depth: usize) -> Result<usize, ParseError> {
    if depth == MAX_DEPTH {
        return Err(ParseError::TooDeep);
    }
    Ok(depth + 1)
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, t: &Tok) -> Result<(), ParseError> {
        match self.bump() {
            Some(got) if got == *t => Ok(()),
            got => Err(ParseError::Syntax(format!("expected {t:?}, got {got:?}"))),
        }
    }

    fn keyword(&mut self, kw: &str) -> bool {
        if let Some(Tok::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            got => Err(ParseError::Syntax(format!(
                "expected identifier, got {got:?}"
            ))),
        }
    }

    fn query(&mut self) -> Result<Query, ParseError> {
        if self.keyword("MATCH") {
            let mut patterns = vec![self.path_pattern()?];
            while matches!(self.peek(), Some(Tok::Comma)) {
                self.bump();
                patterns.push(self.path_pattern()?);
            }
            let where_clause = if self.keyword("WHERE") {
                Some(self.expr()?.0)
            } else {
                None
            };
            if !self.keyword("RETURN") {
                return Err(ParseError::Syntax("MATCH requires RETURN".to_string()));
            }
            let distinct = self.keyword("DISTINCT");
            let mut ret = vec![self.return_item()?];
            while matches!(self.peek(), Some(Tok::Comma)) {
                self.bump();
                ret.push(self.return_item()?);
            }
            let order_by = if self.keyword("ORDER") {
                if !self.keyword("BY") {
                    return Err(ParseError::Syntax("ORDER requires BY".to_string()));
                }
                let var = self.ident()?;
                self.expect(&Tok::Dot)?;
                let key = self.ident()?;
                let descending = if self.keyword("DESC") {
                    true
                } else {
                    self.keyword("ASC");
                    false
                };
                Some((var, key, descending))
            } else {
                None
            };
            let limit = if self.keyword("LIMIT") {
                match self.bump() {
                    Some(Tok::Num(n)) if n >= 0.0 => Some(n as usize),
                    got => {
                        return Err(ParseError::Syntax(format!(
                            "LIMIT requires a non-negative number, got {got:?}"
                        )))
                    }
                }
            } else {
                None
            };
            Ok(Query::Match {
                patterns,
                where_clause,
                ret,
                distinct,
                order_by,
                limit,
            })
        } else if self.keyword("CREATE") {
            Ok(Query::Create {
                pattern: self.path_pattern()?,
            })
        } else {
            Err(ParseError::Syntax(
                "query must start with MATCH or CREATE".to_string(),
            ))
        }
    }

    fn path_pattern(&mut self) -> Result<PathPattern, ParseError> {
        let start = self.node_pattern()?;
        let mut hops = Vec::new();
        loop {
            let direction_in = match self.peek() {
                Some(Tok::Dash) => false,
                Some(Tok::ArrowLeft) => true,
                _ => break,
            };
            self.bump();
            let mut rel = RelPattern {
                var: None,
                rel_type: None,
                props: Vec::new(),
                direction: Direction::Both,
            };
            if matches!(self.peek(), Some(Tok::LBracket)) {
                self.bump();
                // [var? :TYPE? {props}?]
                if let Some(Tok::Ident(_)) = self.peek() {
                    rel.var = Some(self.ident()?);
                }
                if matches!(self.peek(), Some(Tok::Colon)) {
                    self.bump();
                    rel.rel_type = Some(self.ident()?);
                }
                if matches!(self.peek(), Some(Tok::LBrace)) {
                    rel.props = self.prop_map()?;
                }
                self.expect(&Tok::RBracket)?;
            }
            // Closing direction.
            rel.direction = match (direction_in, self.peek()) {
                (true, Some(Tok::Dash)) => {
                    self.bump();
                    Direction::In
                }
                (false, Some(Tok::ArrowRight)) => {
                    self.bump();
                    Direction::Out
                }
                (false, Some(Tok::Dash)) => {
                    self.bump();
                    Direction::Both
                }
                (_, got) => {
                    return Err(ParseError::Syntax(format!(
                        "bad relationship direction near {got:?}"
                    )))
                }
            };
            let node = self.node_pattern()?;
            if hops.len() == MAX_DEPTH {
                return Err(ParseError::TooDeep);
            }
            hops.push((rel, node));
        }
        Ok(PathPattern { start, hops })
    }

    fn node_pattern(&mut self) -> Result<NodePattern, ParseError> {
        self.expect(&Tok::LParen)?;
        let mut node = NodePattern::default();
        if let Some(Tok::Ident(_)) = self.peek() {
            node.var = Some(self.ident()?);
        }
        while matches!(self.peek(), Some(Tok::Colon)) {
            self.bump();
            node.labels.push(self.ident()?);
        }
        if matches!(self.peek(), Some(Tok::LBrace)) {
            node.props = self.prop_map()?;
        }
        self.expect(&Tok::RParen)?;
        Ok(node)
    }

    fn prop_map(&mut self) -> Result<Vec<(String, Value)>, ParseError> {
        self.expect(&Tok::LBrace)?;
        let mut props = Vec::new();
        if matches!(self.peek(), Some(Tok::RBrace)) {
            self.bump();
            return Ok(props);
        }
        loop {
            let key = self.ident()?;
            self.expect(&Tok::Colon)?;
            props.push((key, self.literal()?));
            match self.bump() {
                Some(Tok::Comma) => continue,
                Some(Tok::RBrace) => break,
                got => {
                    return Err(ParseError::Syntax(format!(
                        "expected ',' or '}}' in property map, got {got:?}"
                    )))
                }
            }
        }
        Ok(props)
    }

    fn literal(&mut self) -> Result<Value, ParseError> {
        match self.bump() {
            Some(Tok::Str(s)) => Ok(Value::String(s)),
            Some(Tok::Num(n)) => Ok(Value::Number(n)),
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("true") => Ok(Value::Bool(true)),
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("false") => Ok(Value::Bool(false)),
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("null") => Ok(Value::Null),
            got => Err(ParseError::Syntax(format!("expected literal, got {got:?}"))),
        }
    }

    fn return_item(&mut self) -> Result<ReturnItem, ParseError> {
        if self.peek_keyword("COUNT") {
            self.bump();
            self.expect(&Tok::LParen)?;
            self.expect(&Tok::Star)?;
            self.expect(&Tok::RParen)?;
            return Ok(ReturnItem::CountStar);
        }
        let var = self.ident()?;
        if matches!(self.peek(), Some(Tok::Dot)) {
            self.bump();
            let key = self.ident()?;
            Ok(ReturnItem::Prop(var, key))
        } else {
            Ok(ReturnItem::Var(var))
        }
    }

    /// expr := and_expr (OR and_expr)*
    fn expr(&mut self) -> Result<Nested, ParseError> {
        let (mut left, mut depth) = self.and_expr()?;
        while self.keyword("OR") {
            let (right, right_depth) = self.and_expr()?;
            left = Expr::Or(Box::new(left), Box::new(right));
            depth = deeper(depth.max(right_depth))?;
        }
        Ok((left, depth))
    }

    fn and_expr(&mut self) -> Result<Nested, ParseError> {
        let (mut left, mut depth) = self.unary_expr()?;
        while self.keyword("AND") {
            let (right, right_depth) = self.unary_expr()?;
            left = Expr::And(Box::new(left), Box::new(right));
            depth = deeper(depth.max(right_depth))?;
        }
        Ok((left, depth))
    }

    fn unary_expr(&mut self) -> Result<Nested, ParseError> {
        if self.keyword("NOT") {
            self.depth = deeper(self.depth)?;
            let (inner, depth) = self.unary_expr()?;
            self.depth -= 1;
            return Ok((Expr::Not(Box::new(inner)), deeper(depth)?));
        }
        if matches!(self.peek(), Some(Tok::LParen)) {
            self.bump();
            self.depth = deeper(self.depth)?;
            let inner = self.expr()?;
            self.depth -= 1;
            self.expect(&Tok::RParen)?;
            return Ok(inner);
        }
        // var.key op literal
        let var = self.ident()?;
        self.expect(&Tok::Dot)?;
        let key = self.ident()?;
        let op = match self.bump() {
            Some(Tok::Eq) => CmpOp::Eq,
            Some(Tok::Ne) => CmpOp::Ne,
            Some(Tok::Lt) => CmpOp::Lt,
            Some(Tok::Le) => CmpOp::Le,
            Some(Tok::Gt) => CmpOp::Gt,
            Some(Tok::Ge) => CmpOp::Ge,
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("CONTAINS") => CmpOp::Contains,
            got => {
                return Err(ParseError::Syntax(format!(
                    "expected operator, got {got:?}"
                )))
            }
        };
        let value = self.literal()?;
        let cmp = Expr::Cmp {
            var,
            key,
            op,
            value,
        };
        Ok((cmp, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_match() {
        let q = parse_query("MATCH (a:Concept) RETURN a").unwrap();
        match q {
            Query::Match { patterns, ret, .. } => {
                assert_eq!(patterns.len(), 1);
                assert_eq!(patterns[0].start.labels, vec!["Concept"]);
                assert_eq!(ret, vec![ReturnItem::Var("a".into())]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_relationship_pattern() {
        let q = parse_query(
            "MATCH (a:Concept {label: 'fever'})-[r:BEFORE]->(b:Concept) RETURN a, r, b.label LIMIT 5",
        )
        .unwrap();
        let Query::Match {
            patterns,
            ret,
            limit,
            ..
        } = q
        else {
            panic!()
        };
        let p = &patterns[0];
        assert_eq!(
            p.start.props,
            vec![("label".to_string(), Value::String("fever".into()))]
        );
        assert_eq!(p.hops.len(), 1);
        assert_eq!(p.hops[0].0.rel_type.as_deref(), Some("BEFORE"));
        assert_eq!(p.hops[0].0.direction, Direction::Out);
        assert_eq!(ret.len(), 3);
        assert_eq!(limit, Some(5));
    }

    #[test]
    fn parses_incoming_and_undirected() {
        let q = parse_query("MATCH (a)<-[:MENTIONS]-(b)-[x]-(c) RETURN a").unwrap();
        let Query::Match { patterns, .. } = q else {
            panic!()
        };
        assert_eq!(patterns[0].hops[0].0.direction, Direction::In);
        assert_eq!(patterns[0].hops[1].0.direction, Direction::Both);
        assert_eq!(patterns[0].hops[1].0.var.as_deref(), Some("x"));
    }

    #[test]
    fn parses_where_clause() {
        let q = parse_query(
            "MATCH (a:Report) WHERE a.year >= 2019 AND NOT a.title CONTAINS 'rare' RETURN a",
        )
        .unwrap();
        let Query::Match { where_clause, .. } = q else {
            panic!()
        };
        let Some(Expr::And(left, right)) = where_clause else {
            panic!("expected AND")
        };
        assert!(matches!(*left, Expr::Cmp { op: CmpOp::Ge, .. }));
        assert!(matches!(*right, Expr::Not(_)));
    }

    #[test]
    fn parses_or_precedence() {
        let q = parse_query("MATCH (a) WHERE a.x = 1 OR a.y = 2 AND a.z = 3 RETURN a").unwrap();
        let Query::Match {
            where_clause: Some(e),
            ..
        } = q
        else {
            panic!()
        };
        // AND binds tighter: Or(x=1, And(y=2, z=3)).
        assert!(matches!(e, Expr::Or(_, _)));
    }

    #[test]
    fn parses_count_star() {
        let q = parse_query("MATCH (a:Concept) RETURN COUNT(*)").unwrap();
        let Query::Match { ret, .. } = q else {
            panic!()
        };
        assert_eq!(ret, vec![ReturnItem::CountStar]);
    }

    #[test]
    fn parses_create() {
        let q =
            parse_query("CREATE (n:Concept {label: 'fever', entityType: 'Sign_symptom'})").unwrap();
        let Query::Create { pattern } = q else {
            panic!()
        };
        assert_eq!(pattern.start.labels, vec!["Concept"]);
        assert_eq!(pattern.start.props.len(), 2);
    }

    #[test]
    fn parses_multi_pattern_match() {
        let q = parse_query("MATCH (a:Concept), (b:Concept) WHERE a.x = 1 RETURN a, b").unwrap();
        let Query::Match { patterns, .. } = q else {
            panic!()
        };
        assert_eq!(patterns.len(), 2);
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "SELECT * FROM x",
            "MATCH (a RETURN a",
            "MATCH (a) RETURN",
            "MATCH (a) WHERE a. RETURN a",
            "MATCH (a) RETURN a LIMIT x",
            "MATCH (a)->(b) RETURN a extra",
        ] {
            assert!(parse_query(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn nesting_past_max_depth_is_a_typed_error() {
        let cmp = "a.x = 1";
        for clause in [
            format!("{}{cmp}", "NOT ".repeat(100_000)),
            format!("{}{cmp}", "(".repeat(100_000)),
            format!("{cmp}{}", " AND a.x = 1".repeat(100_000)),
            format!("{}{cmp}", "NOT ".repeat(MAX_DEPTH + 1)),
            format!(
                "{}{cmp}{}",
                "(".repeat(MAX_DEPTH + 1),
                ")".repeat(MAX_DEPTH + 1)
            ),
            format!("{cmp}{}", " OR a.x = 1".repeat(MAX_DEPTH + 1)),
        ] {
            let q = format!("MATCH (a) WHERE {clause} RETURN a");
            assert_eq!(parse_query(&q), Err(ParseError::TooDeep), "{}", &q[..40]);
        }
        let path = |hops: usize| format!("MATCH (a){} RETURN a", "-[]->()".repeat(hops));
        assert!(parse_query(&path(MAX_DEPTH)).is_ok());
        assert_eq!(parse_query(&path(MAX_DEPTH + 1)), Err(ParseError::TooDeep));
        assert_eq!(parse_query(&path(100_000)), Err(ParseError::TooDeep));
    }

    #[test]
    fn keywords_case_insensitive() {
        assert!(parse_query("match (a) return a limit 1").is_ok());
    }
}
