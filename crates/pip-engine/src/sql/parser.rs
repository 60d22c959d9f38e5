//! Recursive-descent SQL parser producing [`Statement`]s.
//!
//! Supported grammar (a pragmatic subset sufficient for every query in
//! the paper's evaluation):
//!
//! ```text
//! stmt      := create | drop | insert | select | explain | analyze
//! explain   := EXPLAIN [ANALYZE] select
//!            | EXPLAIN '(' option (',' option)* ')' select
//! option    := ANALYZE | FORMAT (TEXT | JSON)
//! analyze   := ANALYZE [name]        -- refresh optimizer statistics
//! create    := CREATE TABLE name '(' col type (',' col type)* ')'
//!            | CREATE INDEX name ON table '(' col ')'
//! drop      := DROP INDEX name
//! insert    := INSERT INTO name VALUES tuple (',' tuple)*
//! select    := SELECT target (',' target)* FROM from_item (',' from_item)*
//!              [WHERE pred] [GROUP BY col (',' col)*]
//! target    := '*' | expr [AS alias]
//! from_item := name
//! pred      := cmp (AND cmp)*
//! cmp       := expr (= | <> | < | <= | > | >=) expr
//! expr      := term ((+|-) term)*  ;  term := factor ((*|/) factor)*
//! factor    := number | string | name['.'name] | '(' expr ')' | '-'factor
//!            | func '(' args ')'
//! ```
//!
//! Qualified names `t.col` resolve to the bare column name (our engine
//! renames join duplicates to `col.right`, which can be referenced as a
//! quoted identifier is not supported — keep output names distinct).

use pip_core::{DataType, PipError, Result, Value};
use pip_expr::CmpOp;

use crate::plan::{AggFunc, Plan, PlanBuilder, ScalarExpr};
use crate::sql::lexer::{tokenize, Token};

/// Output format of an `EXPLAIN` statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExplainFormat {
    /// Indented tree, one `plan` text row per line (default).
    Text,
    /// One row holding a single JSON document with the logical and
    /// physical trees, estimated and (under ANALYZE) actual rows.
    Json,
}

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    CreateTable {
        name: String,
        columns: Vec<(String, DataType)>,
    },
    /// `CREATE INDEX name ON table (column)` — ordered secondary index
    /// over one deterministic Int/Float column.
    CreateIndex {
        name: String,
        table: String,
        column: String,
    },
    /// `DROP INDEX name`.
    DropIndex {
        name: String,
    },
    Insert {
        table: String,
        rows: Vec<Vec<ScalarExpr>>,
    },
    Select(Plan),
    /// `EXPLAIN [ANALYZE] [(FORMAT JSON)] SELECT ...` — render the
    /// optimized logical and physical trees with cardinality estimates;
    /// with ANALYZE, execute and include per-operator rows-out and
    /// inclusive/exclusive wall time.
    Explain {
        plan: Plan,
        analyze: bool,
        format: ExplainFormat,
    },
    /// `ANALYZE [table]` — refresh optimizer statistics for one table
    /// (or all tables) and report what was collected.
    Analyze {
        table: Option<String>,
    },
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

/// Parse one SQL statement (a trailing `;` is allowed).
pub fn parse(sql: &str) -> Result<Statement> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    p.eat_if(&Token::Semicolon);
    if !p.at_end() {
        return Err(PipError::Sql(format!(
            "trailing tokens after statement: {:?}",
            p.peek()
        )));
    }
    Ok(stmt)
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn next(&mut self) -> Result<Token> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| PipError::Sql("unexpected end of input".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn eat_if(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().map(|t| t.is_kw(kw)).unwrap_or(false) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(PipError::Sql(format!(
                "expected '{kw}', found {:?}",
                self.peek()
            )))
        }
    }

    fn expect(&mut self, t: Token) -> Result<()> {
        if self.eat_if(&t) {
            Ok(())
        } else {
            Err(PipError::Sql(format!(
                "expected {t:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next()? {
            Token::Ident(s) => Ok(s),
            other => Err(PipError::Sql(format!("expected identifier, got {other:?}"))),
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        if self.eat_kw("create") {
            if self.eat_kw("index") {
                return self.create_index();
            }
            self.expect_kw("table")?;
            return self.create_table();
        }
        if self.eat_kw("drop") {
            self.expect_kw("index")?;
            let name = self.ident()?;
            return Ok(Statement::DropIndex { name });
        }
        if self.eat_kw("insert") {
            self.expect_kw("into")?;
            return self.insert();
        }
        if self.eat_kw("select") {
            return self.select();
        }
        if self.eat_kw("explain") {
            let mut analyze = false;
            let mut format = ExplainFormat::Text;
            if self.eat_if(&Token::LParen) {
                loop {
                    if self.eat_kw("analyze") {
                        analyze = true;
                    } else if self.eat_kw("format") {
                        if self.eat_kw("json") {
                            format = ExplainFormat::Json;
                        } else if self.eat_kw("text") {
                            format = ExplainFormat::Text;
                        } else {
                            return Err(PipError::Sql(format!(
                                "FORMAT expects TEXT or JSON, found {:?}",
                                self.peek()
                            )));
                        }
                    } else {
                        return Err(PipError::Sql(format!(
                            "unknown EXPLAIN option {:?} (ANALYZE, FORMAT TEXT|JSON)",
                            self.peek()
                        )));
                    }
                    if !self.eat_if(&Token::Comma) {
                        break;
                    }
                }
                self.expect(Token::RParen)?;
            } else {
                analyze = self.eat_kw("analyze");
            }
            self.expect_kw("select")?;
            return match self.select()? {
                Statement::Select(plan) => Ok(Statement::Explain {
                    plan,
                    analyze,
                    format,
                }),
                other => unreachable!("select() returned {other:?}"),
            };
        }
        if self.eat_kw("analyze") {
            let table = match self.peek() {
                Some(Token::Ident(_)) => Some(self.ident()?),
                _ => None,
            };
            return Ok(Statement::Analyze { table });
        }
        Err(PipError::Sql(format!(
            "expected CREATE, DROP, INSERT, SELECT, EXPLAIN or ANALYZE, found {:?}",
            self.peek()
        )))
    }

    fn create_table(&mut self) -> Result<Statement> {
        let name = self.ident()?;
        self.expect(Token::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col = self.ident()?;
            let ty = self.ident()?;
            let dtype = match ty.to_ascii_lowercase().as_str() {
                "int" | "integer" | "bigint" => DataType::Int,
                "float" | "double" | "real" | "numeric" => DataType::Float,
                "text" | "varchar" | "string" => DataType::Str,
                "bool" | "boolean" => DataType::Bool,
                "symbolic" | "pvar" | "ctype" => DataType::Symbolic,
                other => return Err(PipError::Sql(format!("unknown type '{other}'"))),
            };
            columns.push((col, dtype));
            if !self.eat_if(&Token::Comma) {
                break;
            }
        }
        self.expect(Token::RParen)?;
        Ok(Statement::CreateTable { name, columns })
    }

    fn create_index(&mut self) -> Result<Statement> {
        let name = self.ident()?;
        self.expect_kw("on")?;
        let table = self.ident()?;
        self.expect(Token::LParen)?;
        let column = self.ident()?;
        self.expect(Token::RParen)?;
        Ok(Statement::CreateIndex {
            name,
            table,
            column,
        })
    }

    fn insert(&mut self) -> Result<Statement> {
        let table = self.ident()?;
        self.expect_kw("values")?;
        let mut rows = Vec::new();
        loop {
            self.expect(Token::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr()?);
                if !self.eat_if(&Token::Comma) {
                    break;
                }
            }
            self.expect(Token::RParen)?;
            rows.push(row);
            if !self.eat_if(&Token::Comma) {
                break;
            }
        }
        Ok(Statement::Insert { table, rows })
    }

    fn select(&mut self) -> Result<Statement> {
        // Targets.
        let mut star = false;
        let mut targets: Vec<(String, ScalarExpr)> = Vec::new();
        let mut aggs: Vec<AggFunc> = Vec::new();
        // Expression-valued aggregate arguments: computed by an injected
        // projection ahead of the aggregate node.
        let mut agg_projections: Vec<(String, ScalarExpr)> = Vec::new();
        let mut want_conf_column = false;
        loop {
            if self.eat_if(&Token::Star) {
                star = true;
            } else if let Some(agg) = self.try_aggregate(&mut agg_projections)? {
                if matches!(agg, AggFunc::Conf) && aggs.is_empty() {
                    // `conf()` without other aggregates and with plain
                    // targets is the row-level operator.
                    want_conf_column = true;
                }
                aggs.push(agg);
            } else {
                let e = self.expr()?;
                let name = if self.eat_kw("as") {
                    self.ident()?
                } else {
                    default_name(&e, targets.len())
                };
                targets.push((name, e));
            }
            if !self.eat_if(&Token::Comma) {
                break;
            }
        }

        self.expect_kw("from")?;
        let mut plan = PlanBuilder::scan(self.ident()?);
        while self.eat_if(&Token::Comma) {
            plan = plan.product(PlanBuilder::scan(self.ident()?));
        }

        if self.eat_kw("where") {
            let pred = self.predicate()?;
            plan = plan.select(pred)?;
        }

        let mut group_by: Vec<String> = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                group_by.push(self.qualified_ident()?);
                if !self.eat_if(&Token::Comma) {
                    break;
                }
            }
        }

        // ORDER BY col [ASC|DESC], ... and LIMIT n wrap the plan head.
        let mut order_by: Vec<(String, bool)> = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let col = self.qualified_ident()?;
                let desc = if self.eat_kw("desc") {
                    true
                } else {
                    self.eat_kw("asc");
                    false
                };
                order_by.push((col, desc));
                if !self.eat_if(&Token::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("limit") {
            match self.next()? {
                Token::Number(n) if n >= 0.0 && n.fract() == 0.0 => Some(n as usize),
                other => {
                    return Err(PipError::Sql(format!(
                        "LIMIT expects a non-negative integer, got {other:?}"
                    )))
                }
            }
        } else {
            None
        };
        let finish = move |mut plan: PlanBuilder| {
            if !order_by.is_empty() {
                let keys: Vec<(&str, bool)> =
                    order_by.iter().map(|(c, d)| (c.as_str(), *d)).collect();
                plan = plan.sort(keys);
            }
            if let Some(n) = limit {
                plan = plan.limit(n);
            }
            Statement::Select(plan.build())
        };

        // Lower to a plan head. A lone `conf()` aggregates (one row per
        // group, `aconf` over the group's rows) under GROUP BY or with no
        // plain target; beside plain targets alone it is the row-level
        // operator below.
        let has_real_agg = aggs.iter().any(|a| !matches!(a, AggFunc::Conf));
        let conf_aggregates =
            !aggs.is_empty() && (!group_by.is_empty() || (!star && targets.is_empty()));
        if has_real_agg || conf_aggregates {
            if !targets.is_empty() && group_by.is_empty() {
                return Err(PipError::Sql(
                    "non-aggregate targets require GROUP BY".into(),
                ));
            }
            // Expression arguments inside aggregates: materialize them
            // (plus the group keys) with a projection first.
            if !agg_projections.is_empty() {
                let mut proj: Vec<(String, ScalarExpr)> = group_by
                    .iter()
                    .map(|g| (g.clone(), ScalarExpr::col(g.clone())))
                    .collect();
                // Plain-column aggregate args must survive the projection
                // too.
                for a in &aggs {
                    if let AggFunc::ExpectedSum(c)
                    | AggFunc::ExpectedAvg(c)
                    | AggFunc::ExpectedMax { column: c, .. } = a
                    {
                        if !agg_projections.iter().any(|(n, _)| n == c)
                            && !proj.iter().any(|(n, _)| n == c)
                        {
                            proj.push((c.clone(), ScalarExpr::col(c.clone())));
                        }
                    }
                }
                proj.extend(agg_projections.iter().cloned());
                plan = plan.project(proj);
            }
            let keys: Vec<&str> = group_by.iter().map(String::as_str).collect();
            plan = plan.aggregate(keys, aggs);
            return Ok(finish(plan));
        }
        if want_conf_column {
            // Row-level conf(): project targets (if any), append conf.
            if !targets.is_empty() {
                plan = plan.project(targets);
            }
            plan = plan.conf();
            return Ok(finish(plan));
        }
        if !star && !targets.is_empty() {
            plan = plan.project(targets);
        }
        Ok(finish(plan))
    }

    /// Parse an aggregate argument: a bare column passes through; any
    /// other expression is registered for a pre-aggregate projection.
    fn agg_arg(&mut self, agg_projections: &mut Vec<(String, ScalarExpr)>) -> Result<String> {
        let e = self.expr()?;
        if let ScalarExpr::Column(c) = &e {
            return Ok(c.clone());
        }
        let name = format!("agg_arg{}", agg_projections.len());
        agg_projections.push((name.clone(), e));
        Ok(name)
    }

    /// Try to parse an aggregate call at the cursor.
    fn try_aggregate(
        &mut self,
        agg_projections: &mut Vec<(String, ScalarExpr)>,
    ) -> Result<Option<AggFunc>> {
        let (is_agg, name) = match self.peek() {
            Some(Token::Ident(s)) => {
                let lower = s.to_ascii_lowercase();
                let is = matches!(
                    lower.as_str(),
                    "expected_sum" | "expected_count" | "expected_avg" | "expected_max" | "conf"
                ) && self.tokens.get(self.pos + 1) == Some(&Token::LParen);
                (is, lower)
            }
            _ => (false, String::new()),
        };
        if !is_agg {
            return Ok(None);
        }
        self.pos += 2; // name + '('
        let agg = match name.as_str() {
            "conf" => {
                self.expect(Token::RParen)?;
                return Ok(Some(AggFunc::Conf));
            }
            "expected_count" => {
                self.eat_if(&Token::Star);
                self.expect(Token::RParen)?;
                AggFunc::ExpectedCount
            }
            "expected_sum" => {
                let col = self.agg_arg(agg_projections)?;
                self.expect(Token::RParen)?;
                AggFunc::ExpectedSum(col)
            }
            "expected_avg" => {
                let col = self.agg_arg(agg_projections)?;
                self.expect(Token::RParen)?;
                AggFunc::ExpectedAvg(col)
            }
            "expected_max" => {
                let col = self.agg_arg(agg_projections)?;
                let precision = if self.eat_if(&Token::Comma) {
                    match self.next()? {
                        Token::Number(n) => n,
                        other => {
                            return Err(PipError::Sql(format!(
                                "expected_max precision must be a number, got {other:?}"
                            )))
                        }
                    }
                } else {
                    0.0
                };
                self.expect(Token::RParen)?;
                AggFunc::ExpectedMax {
                    column: col,
                    precision,
                }
            }
            _ => unreachable!(),
        };
        Ok(Some(agg))
    }

    /// `name` or `qualifier.name` (qualifier discarded, see module docs).
    fn qualified_ident(&mut self) -> Result<String> {
        let first = self.ident()?;
        if self.eat_if(&Token::Dot) {
            self.ident()
        } else {
            Ok(first)
        }
    }

    fn predicate(&mut self) -> Result<ScalarExpr> {
        let mut acc = self.comparison()?;
        while self.eat_kw("and") {
            acc = acc.and(self.comparison()?);
        }
        Ok(acc)
    }

    fn comparison(&mut self) -> Result<ScalarExpr> {
        let left = self.expr()?;
        let op = match self.next()? {
            Token::Lt => CmpOp::Lt,
            Token::Le => CmpOp::Le,
            Token::Gt => CmpOp::Gt,
            Token::Ge => CmpOp::Ge,
            Token::Eq => CmpOp::Eq,
            Token::Ne => CmpOp::Ne,
            other => {
                return Err(PipError::Sql(format!(
                    "expected comparison operator, got {other:?}"
                )))
            }
        };
        let right = self.expr()?;
        Ok(left.cmp(op, right))
    }

    fn expr(&mut self) -> Result<ScalarExpr> {
        let mut acc = self.term()?;
        loop {
            if self.eat_if(&Token::Plus) {
                acc = acc.add(self.term()?);
            } else if self.eat_if(&Token::Minus) {
                acc = acc.sub(self.term()?);
            } else {
                return Ok(acc);
            }
        }
    }

    fn term(&mut self) -> Result<ScalarExpr> {
        let mut acc = self.factor()?;
        loop {
            if self.eat_if(&Token::Star) {
                acc = acc.mul(self.factor()?);
            } else if self.eat_if(&Token::Slash) {
                acc = acc.div(self.factor()?);
            } else {
                return Ok(acc);
            }
        }
    }

    fn factor(&mut self) -> Result<ScalarExpr> {
        match self.next()? {
            Token::Number(n) => Ok(ScalarExpr::lit(n)),
            Token::Str(s) => Ok(ScalarExpr::Literal(Value::str(s))),
            Token::Minus => Ok(ScalarExpr::Neg(Box::new(self.factor()?))),
            Token::LParen => {
                let e = self.expr()?;
                self.expect(Token::RParen)?;
                Ok(e)
            }
            Token::Ident(name) => {
                // Function call?
                if self.peek() == Some(&Token::LParen) {
                    if name.eq_ignore_ascii_case("create_variable") {
                        self.pos += 1;
                        let class = match self.next()? {
                            Token::Str(s) => s,
                            other => {
                                return Err(PipError::Sql(format!(
                                    "create_variable: first argument must be a class name string, got {other:?}"
                                )))
                            }
                        };
                        let mut params = Vec::new();
                        while self.eat_if(&Token::Comma) {
                            match self.next()? {
                                Token::Number(n) => params.push(n),
                                Token::Minus => match self.next()? {
                                    Token::Number(n) => params.push(-n),
                                    other => {
                                        return Err(PipError::Sql(format!(
                                            "create_variable: bad parameter {other:?}"
                                        )))
                                    }
                                },
                                other => {
                                    return Err(PipError::Sql(format!(
                                        "create_variable: parameters must be numeric, got {other:?}"
                                    )))
                                }
                            }
                        }
                        self.expect(Token::RParen)?;
                        return Ok(ScalarExpr::CreateVariable { class, params });
                    }
                    return Err(PipError::Sql(format!("unknown function '{name}'")));
                }
                // Qualified column?
                if self.eat_if(&Token::Dot) {
                    let col = self.ident()?;
                    return Ok(ScalarExpr::col(col));
                }
                Ok(ScalarExpr::col(name))
            }
            other => Err(PipError::Sql(format!("unexpected token {other:?}"))),
        }
    }
}

/// Derive an output name for an unaliased target.
fn default_name(e: &ScalarExpr, idx: usize) -> String {
    match e {
        ScalarExpr::Column(c) => c.clone(),
        _ => format!("col{idx}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_table() {
        let s = parse("CREATE TABLE t (a INT, b TEXT, c SYMBOLIC);").unwrap();
        match s {
            Statement::CreateTable { name, columns } => {
                assert_eq!(name, "t");
                assert_eq!(columns.len(), 3);
                assert_eq!(columns[2].1, DataType::Symbolic);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse("CREATE TABLE t (a BLOB)").is_err());
    }

    #[test]
    fn create_and_drop_index() {
        assert_eq!(
            parse("CREATE INDEX idx_price ON orders (price);").unwrap(),
            Statement::CreateIndex {
                name: "idx_price".into(),
                table: "orders".into(),
                column: "price".into(),
            }
        );
        assert_eq!(
            parse("DROP INDEX idx_price").unwrap(),
            Statement::DropIndex {
                name: "idx_price".into()
            }
        );
        // Single-column only; missing pieces are syntax errors.
        assert!(parse("CREATE INDEX i ON t (a, b)").is_err());
        assert!(parse("CREATE INDEX i ON t").is_err());
        assert!(parse("CREATE INDEX ON t (a)").is_err());
        assert!(parse("DROP TABLE t").is_err());
        assert!(parse("DROP INDEX").is_err());
    }

    #[test]
    fn insert_rows() {
        let s = parse("INSERT INTO t VALUES (1, 'x'), (2, 'y')").unwrap();
        match s {
            Statement::Insert { table, rows } => {
                assert_eq!(table, "t");
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0].len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn insert_with_create_variable() {
        let s = parse("INSERT INTO t VALUES ('Joe', create_variable('Normal', 100, -10))");
        match s.unwrap() {
            Statement::Insert { rows, .. } => match &rows[0][1] {
                ScalarExpr::CreateVariable { class, params } => {
                    assert_eq!(class, "Normal");
                    assert_eq!(params, &vec![100.0, -10.0]);
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn select_with_where_and_group_by() {
        let s = parse(
            "SELECT region, expected_sum(amount) FROM sales \
             WHERE amount > 0 AND region = 'east' GROUP BY region",
        )
        .unwrap();
        match s {
            Statement::Select(Plan::Aggregate { group_by, aggs, .. }) => {
                assert_eq!(group_by, vec!["region"]);
                assert_eq!(aggs, vec![AggFunc::ExpectedSum("amount".into())]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn select_star_cross_join() {
        let s = parse("SELECT * FROM a, b WHERE x = y").unwrap();
        match s {
            Statement::Select(Plan::Select { input, .. }) => {
                assert!(matches!(*input, Plan::Product { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn row_level_conf() {
        let s = parse("SELECT dest, conf() FROM shipping WHERE duration >= 7").unwrap();
        match s {
            Statement::Select(Plan::Conf(inner)) => {
                assert!(matches!(*inner, Plan::Project { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn lone_conf_under_group_by_is_the_aggregate_head() {
        for sql in [
            "SELECT g, conf() FROM t WHERE x > 11.3 GROUP BY g",
            "SELECT conf() FROM t WHERE x > 11.3 GROUP BY g",
        ] {
            match parse(sql).unwrap() {
                Statement::Select(Plan::Aggregate { group_by, aggs, .. }) => {
                    assert_eq!(group_by, vec!["g"], "{sql}");
                    assert_eq!(aggs, vec![AggFunc::Conf], "{sql}");
                }
                other => panic!("{sql}: {other:?}"),
            }
        }
    }

    #[test]
    fn expected_max_with_precision() {
        let s = parse("SELECT expected_max(v, 0.1) FROM t").unwrap();
        match s {
            Statement::Select(Plan::Aggregate { aggs, .. }) => assert_eq!(
                aggs,
                vec![AggFunc::ExpectedMax {
                    column: "v".into(),
                    precision: 0.1
                }]
            ),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn qualified_names_resolve_to_bare_columns() {
        let s = parse("SELECT o.price FROM orders WHERE o.cust = 'Joe'").unwrap();
        match s {
            Statement::Select(Plan::Project { exprs, .. }) => {
                assert_eq!(exprs[0].1, ScalarExpr::col("price"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn arithmetic_precedence() {
        let s = parse("SELECT a + b * 2 AS v FROM t").unwrap();
        match s {
            Statement::Select(Plan::Project { exprs, .. }) => {
                // a + (b*2)
                match &exprs[0].1 {
                    ScalarExpr::Binary { op, right, .. } => {
                        assert_eq!(*op, pip_expr::BinOp::Add);
                        assert!(matches!(
                            **right,
                            ScalarExpr::Binary {
                                op: pip_expr::BinOp::Mul,
                                ..
                            }
                        ));
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn explain_statements() {
        let s = parse("EXPLAIN SELECT * FROM t WHERE a > 0").unwrap();
        match s {
            Statement::Explain {
                analyze,
                plan,
                format,
            } => {
                assert!(!analyze);
                assert_eq!(format, ExplainFormat::Text);
                assert!(matches!(plan, Plan::Select { .. }));
            }
            other => panic!("{other:?}"),
        }
        let s = parse("EXPLAIN ANALYZE SELECT expected_sum(a) FROM t").unwrap();
        match s {
            Statement::Explain { analyze, plan, .. } => {
                assert!(analyze);
                assert!(matches!(plan, Plan::Aggregate { .. }));
            }
            other => panic!("{other:?}"),
        }
        // EXPLAIN applies to SELECT only.
        assert!(parse("EXPLAIN CREATE TABLE t (a INT)").is_err());
        assert!(parse("EXPLAIN ANALYZE").is_err());
    }

    #[test]
    fn explain_option_lists() {
        let s = parse("EXPLAIN (FORMAT JSON) SELECT * FROM t").unwrap();
        match s {
            Statement::Explain {
                analyze, format, ..
            } => {
                assert!(!analyze);
                assert_eq!(format, ExplainFormat::Json);
            }
            other => panic!("{other:?}"),
        }
        let s = parse("EXPLAIN (ANALYZE, FORMAT JSON) SELECT * FROM t").unwrap();
        match s {
            Statement::Explain {
                analyze, format, ..
            } => {
                assert!(analyze);
                assert_eq!(format, ExplainFormat::Json);
            }
            other => panic!("{other:?}"),
        }
        let s = parse("EXPLAIN (ANALYZE, FORMAT TEXT) SELECT * FROM t").unwrap();
        assert!(matches!(
            s,
            Statement::Explain {
                analyze: true,
                format: ExplainFormat::Text,
                ..
            }
        ));
        assert!(parse("EXPLAIN (FORMAT XML) SELECT * FROM t").is_err());
        assert!(parse("EXPLAIN (VERBOSE) SELECT * FROM t").is_err());
    }

    #[test]
    fn analyze_statements() {
        assert_eq!(
            parse("ANALYZE").unwrap(),
            Statement::Analyze { table: None }
        );
        assert_eq!(
            parse("ANALYZE orders;").unwrap(),
            Statement::Analyze {
                table: Some("orders".into())
            }
        );
        assert!(parse("ANALYZE orders extra").is_err());
    }

    #[test]
    fn error_cases() {
        assert!(parse("DELETE FROM t").is_err());
        assert!(parse("SELECT a FROM").is_err());
        assert!(parse("SELECT expected_sum(a) , b FROM t").is_err());
        assert!(parse("SELECT a FROM t extra junk").is_err());
    }
}
