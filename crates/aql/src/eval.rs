//! The AQL expression evaluator.
//!
//! Evaluates the expression subset the paper's listings use: FLWOR
//! iteration over datasets and lists, let-bindings, where-filters,
//! group-by with aggregation, quantified expressions, the builtin function
//! library, and record/list construction. The compiler treats AQL UDFs as
//! transparent expressions evaluated through this module (unlike external
//! UDFs, which stay black boxes).

use crate::ast::{BinOp, Expr, FlworClause, GroupBy};
use asterix_adm::functions as builtins;
use asterix_adm::AdmValue;
use asterix_common::{IngestError, IngestResult};
use asterix_storage::Dataset;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Resolves names the evaluator cannot know by itself.
pub trait EvalContext {
    /// A dataset for `dataset <name>` scans.
    fn dataset(&self, name: &str) -> IngestResult<Arc<Dataset>>;
    /// A user-defined function for calls that are not builtins.
    fn call_udf(&self, name: &str, arg: &AdmValue) -> IngestResult<AdmValue>;
}

/// A context with no datasets and no UDFs (pure expressions).
pub struct EmptyContext;

impl EvalContext for EmptyContext {
    fn dataset(&self, name: &str) -> IngestResult<Arc<Dataset>> {
        Err(IngestError::Metadata(format!(
            "no dataset '{name}' in this context"
        )))
    }

    fn call_udf(&self, name: &str, _arg: &AdmValue) -> IngestResult<AdmValue> {
        Err(IngestError::Metadata(format!(
            "no function '{name}' in this context"
        )))
    }
}

/// Variable bindings.
pub type Env = HashMap<String, AdmValue>;

/// The evaluator's variable scope: the caller's [`Env`] at the root, then a
/// chain of stack-allocated bindings, innermost first. Binding a variable
/// borrows its value; nothing is copied until an expression constructs a
/// new value.
enum Scope<'a> {
    Root(&'a Env),
    Bind(&'a str, &'a AdmValue, &'a Scope<'a>),
}

impl<'a> Scope<'a> {
    fn lookup(&self, name: &str) -> Option<&'a AdmValue> {
        let mut scope = self;
        loop {
            match scope {
                Scope::Root(env) => return env.get(name),
                Scope::Bind(var, value, _) if *var == name => return Some(value),
                Scope::Bind(_, _, parent) => scope = parent,
            }
        }
    }
}

/// Evaluate `expr` under `env`.
pub fn eval(expr: &Expr, env: &Env, ctx: &dyn EvalContext) -> IngestResult<AdmValue> {
    eval_in(expr, &Scope::Root(env), ctx).map(Cow::into_owned)
}

/// Evaluate `expr` with `var` bound to `value` and nothing else — a UDF
/// call. The argument is borrowed, not copied into an environment.
pub(crate) fn eval_bound(
    expr: &Expr,
    var: &str,
    value: &AdmValue,
    ctx: &dyn EvalContext,
) -> IngestResult<AdmValue> {
    let root = Env::new();
    eval_in(expr, &Scope::Bind(var, value, &Scope::Root(&root)), ctx).map(Cow::into_owned)
}

/// Evaluate a FLWOR expression to its row sequence.
pub fn eval_flwor(expr: &Expr, env: &Env, ctx: &dyn EvalContext) -> IngestResult<Vec<AdmValue>> {
    flwor_rows(expr, &Scope::Root(env), ctx)
}

/// The evaluator proper: variable reads and field paths borrow from the
/// scope (or from the expression's literals); only constructors, operators,
/// calls and dataset scans produce owned values.
fn eval_in<'a>(
    expr: &'a Expr,
    scope: &Scope<'a>,
    ctx: &dyn EvalContext,
) -> IngestResult<Cow<'a, AdmValue>> {
    match expr {
        Expr::Literal(v) => Ok(Cow::Borrowed(v)),
        Expr::Var(name) => scope
            .lookup(name)
            .map(Cow::Borrowed)
            .ok_or_else(|| IngestError::Language(format!("unbound variable ${name}"))),
        Expr::DatasetScan(name) => {
            let ds = ctx.dataset(name)?;
            Ok(Cow::Owned(AdmValue::OrderedList(ds.scan_all())))
        }
        Expr::FeedIntake(feed) => Err(IngestError::Plan(format!(
            "feed_intake(\"{feed}\") is a pipeline source, not an evaluable expression"
        ))),
        Expr::FieldAccess(inner, field) => match eval_in(inner, scope, ctx)? {
            Cow::Borrowed(v @ AdmValue::Record(_)) => Ok(v
                .field(field)
                .map_or(Cow::Owned(AdmValue::Missing), Cow::Borrowed)),
            // an owned record gives up the one field; the rest is dropped
            Cow::Owned(AdmValue::Record(fields)) => Ok(Cow::Owned(
                fields
                    .into_iter()
                    .find(|(k, _)| k == field)
                    .map_or(AdmValue::Missing, |(_, v)| v),
            )),
            v => match v.as_ref() {
                AdmValue::Null | AdmValue::Missing => Ok(Cow::Owned(AdmValue::Missing)),
                other => Err(IngestError::Type(format!(
                    "field access on non-record {}",
                    other.type_name()
                ))),
            },
        },
        Expr::RecordCtor(fields) => {
            let mut out = Vec::with_capacity(fields.len());
            for (k, e) in fields {
                out.push((k.clone(), eval_in(e, scope, ctx)?.into_owned()));
            }
            Ok(Cow::Owned(AdmValue::Record(out)))
        }
        Expr::ListCtor(items) => {
            let mut out = Vec::with_capacity(items.len());
            for e in items {
                out.push(eval_in(e, scope, ctx)?.into_owned());
            }
            Ok(Cow::Owned(AdmValue::OrderedList(out)))
        }
        Expr::Call(name, args) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_in(a, scope, ctx)?);
            }
            call_function(name, &vals, ctx).map(Cow::Owned)
        }
        Expr::Bin(op, lhs, rhs) => {
            let l = eval_in(lhs, scope, ctx)?;
            // short-circuit booleans
            match op {
                BinOp::And => {
                    if l.as_bool() == Some(false) {
                        return Ok(Cow::Owned(AdmValue::Boolean(false)));
                    }
                    let r = eval_in(rhs, scope, ctx)?;
                    return bool_op(&l, &r, |a, b| a && b).map(Cow::Owned);
                }
                BinOp::Or => {
                    if l.as_bool() == Some(true) {
                        return Ok(Cow::Owned(AdmValue::Boolean(true)));
                    }
                    let r = eval_in(rhs, scope, ctx)?;
                    return bool_op(&l, &r, |a, b| a || b).map(Cow::Owned);
                }
                _ => {}
            }
            let r = eval_in(rhs, scope, ctx)?;
            apply_binop(*op, &l, &r).map(Cow::Owned)
        }
        Expr::Not(inner) => {
            let v = eval_in(inner, scope, ctx)?;
            v.as_bool()
                .map(|b| Cow::Owned(AdmValue::Boolean(!b)))
                .ok_or_else(|| IngestError::Type("not on non-boolean".into()))
        }
        Expr::Some {
            var,
            source,
            predicate,
        } => {
            let coll = eval_in(source, scope, ctx)?;
            let items = match coll.as_list() {
                Some(items) => items,
                // `some $x in missing` is false, not an error (optional
                // fields)
                None if matches!(*coll, AdmValue::Null | AdmValue::Missing) => {
                    return Ok(Cow::Owned(AdmValue::Boolean(false)))
                }
                None => {
                    return Err(IngestError::Type(format!(
                        "some..in over non-collection {}",
                        coll.type_name()
                    )))
                }
            };
            for item in items {
                let inner = Scope::Bind(var, item, scope);
                if eval_in(predicate, &inner, ctx)?.as_bool() == Some(true) {
                    return Ok(Cow::Owned(AdmValue::Boolean(true)));
                }
            }
            Ok(Cow::Owned(AdmValue::Boolean(false)))
        }
        Expr::Flwor { .. } => Ok(Cow::Owned(AdmValue::OrderedList(flwor_rows(
            expr, scope, ctx,
        )?))),
    }
}

/// One FLWOR evaluation. Each binding streams depth-first through the
/// remaining clauses, so rows come out in nested-loop order and no
/// environment is ever materialized per row.
struct Flwor<'e> {
    clauses: &'e [FlworClause],
    where_clause: Option<&'e Expr>,
    ret: &'e Expr,
    /// `(clause index, rows)` of each projected dataset scan, fetched once
    /// up front (a dataset scan does not depend on the outer bindings).
    prescanned: Vec<(usize, Vec<AdmValue>)>,
}

/// What the innermost clause produces per binding: return rows, or
/// `(group key, with-values)` pairs awaiting the group-by return.
enum Sink<'e> {
    Rows(Vec<AdmValue>),
    Groups(&'e GroupBy, Vec<(AdmValue, Vec<AdmValue>)>),
}

fn flwor_rows(
    expr: &Expr,
    scope: &Scope<'_>,
    ctx: &dyn EvalContext,
) -> IngestResult<Vec<AdmValue>> {
    let Expr::Flwor {
        clauses,
        where_clause,
        group_by,
        ret,
    } = expr
    else {
        return Err(IngestError::Language("not a FLWOR expression".into()));
    };
    // projection pushdown: a dataset scan whose bound variable is only ever
    // used through direct field accesses downstream scans just those fields
    // — on compacted components only the requested columns are decoded
    let mut prescanned = Vec::new();
    for (ci, clause) in clauses.iter().enumerate() {
        if let FlworClause::For {
            var,
            source: Expr::DatasetScan(name),
        } = clause
        {
            if let Some(fields) = projection_for(
                var,
                &clauses[ci + 1..],
                where_clause.as_deref(),
                group_by.as_ref(),
                ret,
            ) {
                prescanned.push((ci, ctx.dataset(name)?.scan_projected(&fields)));
            }
        }
    }
    let flwor = Flwor {
        clauses,
        where_clause: where_clause.as_deref(),
        ret,
        prescanned,
    };
    let mut sink = match group_by {
        None => Sink::Rows(Vec::new()),
        Some(g) => Sink::Groups(g, Vec::new()),
    };
    flwor.bind(0, scope, ctx, &mut sink)?;
    match sink {
        Sink::Rows(rows) => Ok(rows),
        Sink::Groups(g, groups) => {
            // the return sees the enclosing scope plus the key and the
            // with-list — not the per-row bindings
            let mut rows = Vec::with_capacity(groups.len());
            for (key, items) in groups {
                let items = AdmValue::OrderedList(items);
                let keyed = Scope::Bind(&g.key_var, &key, scope);
                let grouped = Scope::Bind(&g.with_var, &items, &keyed);
                rows.push(eval_in(ret, &grouped, ctx)?.into_owned());
            }
            Ok(rows)
        }
    }
}

impl Flwor<'_> {
    /// Bind clause `ci` under `scope` and recurse into the next clause for
    /// each binding; past the last clause, filter and emit into `sink`.
    fn bind(
        &self,
        ci: usize,
        scope: &Scope<'_>,
        ctx: &dyn EvalContext,
        sink: &mut Sink<'_>,
    ) -> IngestResult<()> {
        let Some(clause) = self.clauses.get(ci) else {
            return self.emit(scope, ctx, sink);
        };
        match clause {
            FlworClause::For { var, source } => {
                let coll;
                let items: &[AdmValue] = match self.prescanned.iter().find(|(i, _)| *i == ci) {
                    Some((_, rows)) => rows,
                    None => {
                        coll = eval_in(source, scope, ctx)?;
                        match coll.as_ref() {
                            AdmValue::OrderedList(v) | AdmValue::UnorderedList(v) => v,
                            AdmValue::Null | AdmValue::Missing => &[],
                            other => {
                                return Err(IngestError::Type(format!(
                                    "for..in over non-collection {}",
                                    other.type_name()
                                )))
                            }
                        }
                    }
                };
                for item in items {
                    self.bind(ci + 1, &Scope::Bind(var, item, scope), ctx, sink)?;
                }
                Ok(())
            }
            FlworClause::Let { var, value } => {
                let v = eval_in(value, scope, ctx)?;
                self.bind(ci + 1, &Scope::Bind(var, &v, scope), ctx, sink)
            }
        }
    }

    fn emit(
        &self,
        scope: &Scope<'_>,
        ctx: &dyn EvalContext,
        sink: &mut Sink<'_>,
    ) -> IngestResult<()> {
        if let Some(pred) = self.where_clause {
            if eval_in(pred, scope, ctx)?.as_bool() != Some(true) {
                return Ok(());
            }
        }
        match sink {
            Sink::Rows(rows) => rows.push(eval_in(self.ret, scope, ctx)?.into_owned()),
            Sink::Groups(g, groups) => {
                // group by key (total order on ADM values)
                let key = eval_in(&g.key_expr, scope, ctx)?.into_owned();
                let with_val = scope.lookup(&g.with_var).cloned().ok_or_else(|| {
                    IngestError::Language(format!(
                        "group-by with-variable ${} is unbound",
                        g.with_var
                    ))
                })?;
                match groups
                    .iter_mut()
                    .find(|(k, _)| k.total_cmp(&key) == Ordering::Equal)
                {
                    Some((_, items)) => items.push(with_val),
                    None => groups.push((key, vec![with_val])),
                }
            }
        }
        Ok(())
    }
}

/// The field set a dataset-scan variable can be projected down to, or
/// `None` when the whole record is needed. Projection is sound only when
/// every downstream use of `$var` is a direct field access `$var.<f>`: a
/// bare `$var` (returned, regrouped by `with`, passed to a function, ...)
/// needs the full record. Later clauses rebinding the variable shadow it,
/// ending the analysis early.
fn projection_for(
    var: &str,
    tail: &[FlworClause],
    where_clause: Option<&Expr>,
    group_by: Option<&GroupBy>,
    ret: &Expr,
) -> Option<Vec<String>> {
    let mut fields = BTreeSet::new();
    if flwor_tail_projects(var, tail, where_clause, group_by, ret, &mut fields) {
        Some(fields.into_iter().collect())
    } else {
        None
    }
}

/// Walk the remainder of a FLWOR (clauses after the binding, then where /
/// group-by / return) collecting `$var.<f>` accesses into `fields`.
/// Returns false as soon as a whole-record use is found.
fn flwor_tail_projects(
    var: &str,
    tail: &[FlworClause],
    where_clause: Option<&Expr>,
    group_by: Option<&GroupBy>,
    ret: &Expr,
    fields: &mut BTreeSet<String>,
) -> bool {
    for clause in tail {
        let (bound, expr) = match clause {
            FlworClause::For { var: v, source } => (v, source),
            FlworClause::Let { var: v, value } => (v, value),
        };
        if !collect_projected(expr, var, fields) {
            return false;
        }
        if bound == var {
            return true; // shadowed from here on
        }
    }
    if let Some(w) = where_clause {
        if !collect_projected(w, var, fields) {
            return false;
        }
    }
    if let Some(g) = group_by {
        if !collect_projected(&g.key_expr, var, fields) {
            return false;
        }
        if g.with_var == var {
            return false; // the records are regrouped whole
        }
        if g.key_var == var {
            return true; // the return expression sees the group key instead
        }
    }
    collect_projected(ret, var, fields)
}

/// Collect direct `$var.<f>` accesses in `expr` into `fields`; false when
/// the variable is used whole anywhere.
fn collect_projected(expr: &Expr, var: &str, fields: &mut BTreeSet<String>) -> bool {
    match expr {
        Expr::Var(v) => v != var,
        Expr::FieldAccess(inner, f) => {
            if matches!(inner.as_ref(), Expr::Var(v) if v == var) {
                fields.insert(f.clone());
                true
            } else {
                collect_projected(inner, var, fields)
            }
        }
        Expr::Literal(_) | Expr::DatasetScan(_) | Expr::FeedIntake(_) => true,
        Expr::RecordCtor(fs) => fs.iter().all(|(_, e)| collect_projected(e, var, fields)),
        Expr::ListCtor(items) => items.iter().all(|e| collect_projected(e, var, fields)),
        Expr::Call(_, args) => args.iter().all(|e| collect_projected(e, var, fields)),
        Expr::Bin(_, l, r) => {
            collect_projected(l, var, fields) && collect_projected(r, var, fields)
        }
        Expr::Not(inner) => collect_projected(inner, var, fields),
        Expr::Some {
            var: sv,
            source,
            predicate,
        } => {
            collect_projected(source, var, fields)
                && (sv == var || collect_projected(predicate, var, fields))
        }
        Expr::Flwor {
            clauses,
            where_clause,
            group_by,
            ret,
        } => flwor_tail_projects(
            var,
            clauses,
            where_clause.as_deref(),
            group_by.as_ref(),
            ret,
            fields,
        ),
    }
}

fn bool_op(l: &AdmValue, r: &AdmValue, f: impl Fn(bool, bool) -> bool) -> IngestResult<AdmValue> {
    match (l.as_bool(), r.as_bool()) {
        (Some(a), Some(b)) => Ok(AdmValue::Boolean(f(a, b))),
        _ => Err(IngestError::Type(format!(
            "boolean operator on {} / {}",
            l.type_name(),
            r.type_name()
        ))),
    }
}

fn apply_binop(op: BinOp, l: &AdmValue, r: &AdmValue) -> IngestResult<AdmValue> {
    use BinOp::*;
    match op {
        Eq => Ok(AdmValue::Boolean(l.total_cmp(r) == Ordering::Equal)),
        Ne => Ok(AdmValue::Boolean(l.total_cmp(r) != Ordering::Equal)),
        Lt | Le | Gt | Ge => {
            let c = l.total_cmp(r);
            Ok(AdmValue::Boolean(match op {
                Lt => c == Ordering::Less,
                Le => c != Ordering::Greater,
                Gt => c == Ordering::Greater,
                Ge => c != Ordering::Less,
                _ => unreachable!(),
            }))
        }
        Add | Sub | Mul | Div => {
            // string concatenation for Add
            if op == Add {
                if let (Some(a), Some(b)) = (l.as_str(), r.as_str()) {
                    return Ok(AdmValue::String(format!("{a}{b}")));
                }
            }
            let (a, b) = match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(IngestError::Type(format!(
                        "arithmetic on {} / {}",
                        l.type_name(),
                        r.type_name()
                    )))
                }
            };
            if op == Div && b == 0.0 {
                return Err(IngestError::soft("division by zero"));
            }
            let result = match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                Div => a / b,
                _ => unreachable!(),
            };
            // keep integers integral
            match (l, r, op) {
                (AdmValue::Int(_), AdmValue::Int(_), Add | Sub | Mul) => {
                    Ok(AdmValue::Int(result as i64))
                }
                _ => Ok(AdmValue::Double(result)),
            }
        }
        And | Or => unreachable!("handled by short-circuit path"),
    }
}

/// Room for the longest builtin name; longer names can only be UDFs.
const MAX_BUILTIN_NAME: usize = 24;

/// Dispatch a function call: builtins first, then the context's UDFs.
/// Builtin names match case-insensitively; the name is lowercased into a
/// stack buffer, so dispatch never allocates.
fn call_function(
    name: &str,
    args: &[Cow<'_, AdmValue>],
    ctx: &dyn EvalContext,
) -> IngestResult<AdmValue> {
    let arity = |n: usize| -> IngestResult<()> {
        if args.len() == n {
            Ok(())
        } else {
            Err(IngestError::Language(format!(
                "{name} expects {n} argument(s), got {}",
                args.len()
            )))
        }
    };
    let mut buf = [0u8; MAX_BUILTIN_NAME];
    let lower = match buf.get_mut(..name.len()) {
        Some(dst) => {
            dst.copy_from_slice(name.as_bytes());
            dst.make_ascii_lowercase();
            std::str::from_utf8(dst).unwrap_or_default()
        }
        None => "",
    };
    match lower {
        "word-tokens" => {
            arity(1)?;
            builtins::word_tokens(&args[0])
        }
        "starts-with" => {
            arity(2)?;
            builtins::starts_with(&args[0], &args[1])
        }
        "create-point" => {
            arity(2)?;
            builtins::create_point(&args[0], &args[1])
        }
        "create-rectangle" => {
            arity(2)?;
            builtins::create_rectangle(&args[0], &args[1])
        }
        "spatial-intersect" => {
            arity(2)?;
            builtins::spatial_intersect(&args[0], &args[1])
        }
        "spatial-cell" => {
            arity(4)?;
            builtins::spatial_cell(&args[0], &args[1], &args[2], &args[3])
        }
        "count" => {
            arity(1)?;
            match args[0].as_list() {
                Some(items) => Ok(AdmValue::Int(items.len() as i64)),
                None => Err(IngestError::Type("count expects a collection".into())),
            }
        }
        "len" | "string-length" => {
            arity(1)?;
            args[0]
                .as_str()
                .map(|s| AdmValue::Int(s.chars().count() as i64))
                .ok_or_else(|| IngestError::Type("string-length expects a string".into()))
        }
        "lowercase" => {
            arity(1)?;
            args[0]
                .as_str()
                .map(|s| AdmValue::String(s.to_lowercase()))
                .ok_or_else(|| IngestError::Type("lowercase expects a string".into()))
        }
        _ => {
            arity(1)?;
            ctx.call_udf(name, &args[0])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;

    fn run(src: &str) -> AdmValue {
        let e = parse_expr(src).unwrap();
        eval(&e, &Env::new(), &EmptyContext).unwrap()
    }

    fn run_env(src: &str, env: &Env) -> AdmValue {
        let e = parse_expr(src).unwrap();
        eval(&e, env, &EmptyContext).unwrap()
    }

    #[test]
    fn arithmetic_and_comparison() {
        assert_eq!(run("1 + 2 * 3"), AdmValue::Int(7));
        assert_eq!(run("10 / 4"), AdmValue::Double(2.5));
        assert_eq!(run("2.5 + 1"), AdmValue::Double(3.5));
        assert_eq!(run("3 < 4 and 4 <= 4"), AdmValue::Boolean(true));
        assert_eq!(run("3 != 3 or 2 > 1"), AdmValue::Boolean(true));
        assert_eq!(run("\"a\" + \"b\""), AdmValue::string("ab"));
        assert_eq!(run("not false"), AdmValue::Boolean(true));
    }

    #[test]
    fn division_by_zero_is_soft() {
        let e = parse_expr("1 / 0").unwrap();
        let err = eval(&e, &Env::new(), &EmptyContext).unwrap_err();
        assert!(err.is_soft());
    }

    #[test]
    fn record_and_list_construction() {
        let v = run("{ \"a\": [1, 2], \"b\": { \"c\": true } }");
        assert_eq!(v.field("a").unwrap().as_list().unwrap().len(), 2);
        assert_eq!(
            v.field("b").unwrap().field("c"),
            Some(&AdmValue::Boolean(true))
        );
    }

    #[test]
    fn field_access_and_missing() {
        let mut env = Env::new();
        env.insert("x".into(), AdmValue::record(vec![("id", "t1".into())]));
        assert_eq!(run_env("$x.id", &env), AdmValue::string("t1"));
        assert_eq!(run_env("$x.nope", &env), AdmValue::Missing);
        assert_eq!(run_env("$x.nope.deeper", &env), AdmValue::Missing);
    }

    #[test]
    fn flwor_for_let_where_return() {
        let v = run("for $x in [1, 2, 3, 4, 5] let $y := $x * 2 where $y > 4 return $y");
        assert_eq!(
            v,
            AdmValue::OrderedList(vec![AdmValue::Int(6), AdmValue::Int(8), AdmValue::Int(10)])
        );
    }

    #[test]
    fn nested_flwor_in_let() {
        let v = run(r##"let $topics := (for $t in ["#a", "b", "#c"]
                              where starts-with($t, "#")
                              return $t)
               return count($topics)"##);
        assert_eq!(v, AdmValue::OrderedList(vec![AdmValue::Int(2)]));
    }

    #[test]
    fn group_by_counts() {
        let v = run(r#"for $x in [1, 2, 3, 4, 5, 6]
               group by $small := $x < 4 with $x
               return { "small": $small, "count": count($x) }"#);
        let groups = v.as_list().unwrap();
        assert_eq!(groups.len(), 2);
        for g in groups {
            assert_eq!(g.field("count").unwrap(), &AdmValue::Int(3));
        }
    }

    #[test]
    fn some_satisfies() {
        let mut env = Env::new();
        env.insert(
            "t".into(),
            AdmValue::record(vec![(
                "topics",
                AdmValue::OrderedList(vec!["#Obama".into(), "#x".into()]),
            )]),
        );
        assert_eq!(
            run_env(r##"some $h in $t.topics satisfies ($h = "#Obama")"##, &env),
            AdmValue::Boolean(true)
        );
        assert_eq!(
            run_env(r##"some $h in $t.topics satisfies ($h = "#nope")"##, &env),
            AdmValue::Boolean(false)
        );
        // quantifying over a missing field is false
        assert_eq!(
            run_env("some $h in $t.missing_field satisfies ($h = 1)", &env),
            AdmValue::Boolean(false)
        );
    }

    #[test]
    fn spatial_builtins_compose() {
        let v = run(r#"let $p := create-point(1.0, 2.0)
               let $r := create-rectangle(create-point(0.0, 0.0), create-point(5.0, 5.0))
               return spatial-intersect($p, $r)"#);
        assert_eq!(v, AdmValue::OrderedList(vec![AdmValue::Boolean(true)]));
    }

    #[test]
    fn unbound_variable_and_unknown_function_error() {
        let e = parse_expr("$nope").unwrap();
        assert!(eval(&e, &Env::new(), &EmptyContext).is_err());
        let e = parse_expr("frobnicate(1)").unwrap();
        assert!(eval(&e, &Env::new(), &EmptyContext).is_err());
    }

    #[test]
    fn feed_intake_is_not_evaluable() {
        let e = parse_expr("for $x in feed_intake(\"F\") return $x").unwrap();
        assert!(eval(&e, &Env::new(), &EmptyContext).is_err());
    }

    fn analyze(src: &str) -> Option<Vec<String>> {
        let Expr::Flwor {
            clauses,
            where_clause,
            group_by,
            ret,
        } = parse_expr(src).unwrap()
        else {
            panic!("not a FLWOR");
        };
        let FlworClause::For { var, .. } = &clauses[0] else {
            panic!("first clause not a for");
        };
        projection_for(
            var,
            &clauses[1..],
            where_clause.as_deref(),
            group_by.as_ref(),
            &ret,
        )
    }

    #[test]
    fn projection_analysis_identifies_field_only_uses() {
        // pure field accesses: project down to the used fields
        assert_eq!(
            analyze(r#"for $t in dataset T where $t.country = "US" return $t.message_text"#),
            Some(vec!["country".to_string(), "message_text".to_string()])
        );
        // returning the whole record needs everything
        assert_eq!(analyze("for $t in dataset T return $t"), None);
        // regrouping the records whole (`with $t`) needs everything
        assert_eq!(
            analyze(
                "for $t in dataset T group by $c := $t.country with $t \
                 return { \"c\": $c, \"n\": count($t) }"
            ),
            None
        );
        // a whole use inside a function call needs everything
        assert_eq!(analyze("for $t in dataset T return word-tokens($t)"), None);
        // quantifier over a field is still a field access
        assert_eq!(
            analyze(
                r##"for $t in dataset T
                    where some $h in $t.topics satisfies ($h = "#x")
                    return $t.id"##
            ),
            Some(vec!["id".to_string(), "topics".to_string()])
        );
        // a later `for` rebinding the variable shadows it
        assert_eq!(
            analyze("for $t in dataset T for $t in $t.items return $t"),
            Some(vec!["items".to_string()])
        );
    }

    fn tweet_dataset() -> Arc<Dataset> {
        use asterix_common::NodeId;
        use asterix_storage::DatasetConfig;
        let d = Dataset::create(DatasetConfig {
            name: "T".into(),
            datatype: "Tweet".into(),
            primary_key: "id".into(),
            nodegroup: vec![NodeId(0)],
        })
        .unwrap();
        for i in 0..40 {
            d.upsert(&AdmValue::record(vec![
                ("id", format!("t{i:02}").as_str().into()),
                (
                    "country",
                    if i % 3 == 0 { "US".into() } else { "CA".into() },
                ),
                ("message_text", format!("msg {i}").as_str().into()),
            ]))
            .unwrap();
        }
        d.force_merge_all(); // sealed into a compacted component
        Arc::new(d)
    }

    struct OneDataset(Arc<Dataset>);

    impl EvalContext for OneDataset {
        fn dataset(&self, name: &str) -> IngestResult<Arc<Dataset>> {
            if name == self.0.config.name {
                Ok(Arc::clone(&self.0))
            } else {
                Err(IngestError::Metadata(format!("unknown dataset {name}")))
            }
        }

        fn call_udf(&self, name: &str, _arg: &AdmValue) -> IngestResult<AdmValue> {
            Err(IngestError::Metadata(format!("no function {name}")))
        }
    }

    #[test]
    fn projected_dataset_scan_matches_unprojected_results() {
        let ctx = OneDataset(tweet_dataset());
        // this query takes the projected path (checked by the analysis test)
        let projected = run_ctx(
            r#"for $t in dataset T where $t.country = "US" return $t.message_text"#,
            &ctx,
        );
        // forcing the whole-record path (`$t` escapes into the result) must
        // select the same rows
        let whole = run_ctx(
            r#"for $t in dataset T where $t.country = "US" return { "m": $t.message_text, "r": $t }"#,
            &ctx,
        );
        let projected_rows = projected.as_list().unwrap();
        let whole_rows = whole.as_list().unwrap();
        assert_eq!(projected_rows.len(), whole_rows.len());
        assert!(!projected_rows.is_empty());
        for (p, w) in projected_rows.iter().zip(whole_rows) {
            assert_eq!(Some(p), w.field("m"));
            assert_eq!(
                w.field("r").unwrap().field("country"),
                Some(&AdmValue::string("US"))
            );
        }
    }

    fn run_ctx(src: &str, ctx: &dyn EvalContext) -> AdmValue {
        let e = parse_expr(src).unwrap();
        eval(&e, &Env::new(), ctx).unwrap()
    }

    #[test]
    fn listing_3_3_spatial_aggregation_end_to_end() {
        // tweets scattered over two grid cells, one tagged #Obama each
        let tweets = AdmValue::OrderedList(vec![
            AdmValue::record(vec![
                ("location", AdmValue::Point(34.0, -120.0)),
                ("topics", AdmValue::OrderedList(vec!["#Obama".into()])),
            ]),
            AdmValue::record(vec![
                ("location", AdmValue::Point(34.2, -120.1)),
                (
                    "topics",
                    AdmValue::OrderedList(vec!["#Obama".into(), "#x".into()]),
                ),
            ]),
            AdmValue::record(vec![
                ("location", AdmValue::Point(40.0, -90.0)),
                ("topics", AdmValue::OrderedList(vec!["#Obama".into()])),
            ]),
            AdmValue::record(vec![
                // tagged differently: filtered out
                ("location", AdmValue::Point(34.0, -120.0)),
                ("topics", AdmValue::OrderedList(vec!["#other".into()])),
            ]),
        ]);
        let mut env = Env::new();
        env.insert("tweets".into(), tweets);
        let v = run_env(
            r##"for $tweet in $tweets
               let $searchHashTag := "Obama"
               let $leftBottom := create-point(33.13, -124.27)
               let $latResolution := 3.0
               let $longResolution := 3.0
               where some $hashTag in $tweet.topics satisfies ($hashTag = "#Obama")
               group by $c := spatial-cell($tweet.location, $leftBottom, $latResolution, $longResolution) with $tweet
               return { "cell": $c, "count": count($tweet) }"##,
            &env,
        );
        let cells = v.as_list().unwrap();
        assert_eq!(cells.len(), 2);
        let counts: Vec<i64> = cells
            .iter()
            .map(|c| c.field("count").unwrap().as_int().unwrap())
            .collect();
        assert!(counts.contains(&2) && counts.contains(&1));
    }
}
