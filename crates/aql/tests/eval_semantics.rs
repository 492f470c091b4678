//! Evaluator semantics the borrowed-binding evaluator must keep: the
//! AQL-defined Listing 4.2 UDF agrees with the native one record for
//! record, and scoping, quantifier, error, row-order and scan-count rules
//! are pinned one by one.

use asterix_adm::functions::add_hash_tags;
use asterix_adm::{parse_value, AdmValue};
use asterix_aql::engine::AsterixEngine;
use asterix_aql::eval::{eval, EmptyContext, Env, EvalContext};
use asterix_aql::parser::parse_expr;
use asterix_common::{IngestError, IngestResult, NodeId, SimClock, SimDuration};
use asterix_feeds::controller::ControllerConfig;
use asterix_hyracks::cluster::{Cluster, ClusterConfig};
use asterix_storage::{Dataset, DatasetConfig};
use std::cell::Cell;
use std::sync::Arc;
use tweetgen::TweetFactory;

/// Listing 4.2's `addHashTags`, written in AQL.
const ADD_HASH_TAGS: &str = r##"create function addHashTags($x) {
    let $topics := (for $token in word-tokens($x.message_text)
                    where starts-with($token, "#")
                    return $token)
    return {
        "id": $x.id, "user": $x.user, "latitude": $x.latitude,
        "longitude": $x.longitude, "created_at": $x.created_at,
        "message_text": $x.message_text, "country": $x.country,
        "topics": $topics
    };
};"##;

fn run(src: &str, env: &Env, ctx: &dyn EvalContext) -> IngestResult<AdmValue> {
    eval(&parse_expr(src).unwrap(), env, ctx)
}

fn ints(v: &[i64]) -> AdmValue {
    AdmValue::OrderedList(v.iter().map(|&i| AdmValue::Int(i)).collect())
}

#[test]
fn aql_add_hash_tags_matches_the_native_udf() {
    let clock = SimClock::with_scale(10.0);
    let cluster = Cluster::start(
        1,
        clock,
        ClusterConfig {
            heartbeat_interval: SimDuration::from_secs(5),
            failure_threshold: SimDuration::from_secs(1_000_000),
        },
    );
    let engine = AsterixEngine::start(cluster.clone(), ControllerConfig::default());
    engine.execute(ADD_HASH_TAGS).unwrap();
    let udf = engine.catalog().function("addHashTags").unwrap();
    let mut tweets = TweetFactory::new(3, 0x5eed);
    let mut tagged = 0;
    for _ in 0..2_000 {
        let tweet = parse_value(&tweets.next_json()).unwrap();
        let want = add_hash_tags(&tweet).unwrap();
        let got = udf.apply(&tweet).unwrap();
        assert_eq!(got, want, "tweet {:?}", tweet.field("id"));
        if want
            .field("topics")
            .and_then(|t| t.as_list())
            .is_some_and(|t| !t.is_empty())
        {
            tagged += 1;
        }
    }
    assert!(
        tagged > 500,
        "the corpus exercises the hashtag path ({tagged})"
    );
    engine.controller().shutdown();
    cluster.shutdown();
}

#[test]
fn group_by_return_sees_only_outer_scope_key_and_with() {
    let mut env = Env::new();
    env.insert("o".into(), AdmValue::string("outer"));
    let v = run(
        r#"for $x in [1, 2, 3]
           let $y := $x * 10
           group by $k := $x < 3 with $x
           return { "k": $k, "xs": $x, "o": $o }"#,
        &env,
        &EmptyContext,
    )
    .unwrap();
    let groups = v.as_list().unwrap();
    assert_eq!(groups.len(), 2);
    assert_eq!(groups[0].field("k"), Some(&AdmValue::Boolean(true)));
    assert_eq!(groups[0].field("xs"), Some(&ints(&[1, 2])));
    assert_eq!(groups[1].field("xs"), Some(&ints(&[3])));
    assert_eq!(groups[1].field("o"), Some(&AdmValue::string("outer")));
    // a per-row binding does not survive grouping
    let err = run(
        "for $x in [1, 2, 3] let $y := $x * 10 group by $k := $x < 3 with $x return $y",
        &env,
        &EmptyContext,
    )
    .unwrap_err();
    assert!(err.to_string().contains("unbound variable $y"), "{err}");
}

#[test]
fn inner_for_shadows_outer_binding() {
    let v = run(
        "for $x in [1, 2] for $x in [$x * 10, $x * 10 + 1] return $x",
        &Env::new(),
        &EmptyContext,
    )
    .unwrap();
    assert_eq!(v, ints(&[10, 11, 20, 21]));
    // and the shadowing ends with the expression: the caller's $x is intact
    let mut env = Env::new();
    env.insert("x".into(), AdmValue::Int(7));
    let v = run("[(for $x in [1] return $x), $x]", &env, &EmptyContext).unwrap();
    assert_eq!(v, AdmValue::OrderedList(vec![ints(&[1]), AdmValue::Int(7)]));
}

#[test]
fn some_over_missing_is_false() {
    let mut env = Env::new();
    env.insert("t".into(), AdmValue::record(vec![("id", "t1".into())]));
    let v = run(
        "some $h in $t.topics satisfies ($h = 1)",
        &env,
        &EmptyContext,
    )
    .unwrap();
    assert_eq!(v, AdmValue::Boolean(false));
    let v = run(
        "some $h in $t.nope.deeper satisfies (true)",
        &env,
        &EmptyContext,
    )
    .unwrap();
    assert_eq!(v, AdmValue::Boolean(false));
}

#[test]
fn unbound_variable_is_an_error() {
    let err = run("$nope", &Env::new(), &EmptyContext).unwrap_err();
    assert!(matches!(err, IngestError::Language(_)), "{err:?}");
    // also when it is only reached inside a nested binding
    let err = run(
        "for $x in [1, 2] where $x = $nope return $x",
        &Env::new(),
        &EmptyContext,
    )
    .unwrap_err();
    assert!(err.to_string().contains("unbound variable $nope"), "{err}");
}

#[test]
fn nested_for_rows_come_out_in_nested_loop_order() {
    let v = run(
        r#"for $a in [1, 2, 3]
           for $b in ["x", "y"]
           let $c := $a * 2
           where $a != 2
           return [$a, $b, $c]"#,
        &Env::new(),
        &EmptyContext,
    )
    .unwrap();
    let want: Vec<AdmValue> = [(1, "x"), (1, "y"), (3, "x"), (3, "y")]
        .iter()
        .map(|&(a, b)| {
            AdmValue::OrderedList(vec![AdmValue::Int(a), b.into(), AdmValue::Int(a * 2)])
        })
        .collect();
    assert_eq!(v, AdmValue::OrderedList(want));
}

#[test]
fn builtin_names_resolve_case_insensitively() {
    let v = run(
        r##"WORD-TOKENS("go #Obama now")"##,
        &Env::new(),
        &EmptyContext,
    )
    .unwrap();
    assert_eq!(
        v,
        AdmValue::OrderedList(vec!["go".into(), "#Obama".into(), "now".into()])
    );
    let v = run(r##"Starts-With("#x", "#")"##, &Env::new(), &EmptyContext).unwrap();
    assert_eq!(v, AdmValue::Boolean(true));
    // a name longer than every builtin still reaches the UDF lookup
    let err = run(
        "a-function-name-longer-than-any-builtin(1)",
        &Env::new(),
        &EmptyContext,
    )
    .unwrap_err();
    assert!(err.to_string().contains("no function"), "{err}");
}

/// A context serving one dataset and counting how often it is asked.
struct CountingContext {
    dataset: Arc<Dataset>,
    calls: Cell<usize>,
}

impl EvalContext for CountingContext {
    fn dataset(&self, name: &str) -> IngestResult<Arc<Dataset>> {
        self.calls.set(self.calls.get() + 1);
        if name == self.dataset.config.name {
            Ok(Arc::clone(&self.dataset))
        } else {
            Err(IngestError::Metadata(format!("unknown dataset {name}")))
        }
    }

    fn call_udf(&self, name: &str, _arg: &AdmValue) -> IngestResult<AdmValue> {
        Err(IngestError::Metadata(format!("no function {name}")))
    }
}

fn counting_context() -> CountingContext {
    let d = Dataset::create(DatasetConfig {
        name: "T".into(),
        datatype: "Tweet".into(),
        primary_key: "id".into(),
        nodegroup: vec![NodeId(0)],
    })
    .unwrap();
    for i in 0..12 {
        d.upsert(&AdmValue::record(vec![
            ("id", format!("t{i:02}").as_str().into()),
            (
                "country",
                if i % 3 == 0 { "US".into() } else { "CA".into() },
            ),
        ]))
        .unwrap();
    }
    d.force_merge_all();
    CountingContext {
        dataset: Arc::new(d),
        calls: Cell::new(0),
    }
}

#[test]
fn projected_scan_in_nested_for_runs_once_per_clause() {
    let ctx = counting_context();
    let v = run(
        r#"for $a in [1, 2, 3]
           for $t in dataset T
           where $t.country = "US"
           return [$a, $t.id]"#,
        &Env::new(),
        &ctx,
    )
    .unwrap();
    assert_eq!(ctx.calls.get(), 1, "one scan, not one per outer binding");
    let rows = v.as_list().unwrap();
    assert_eq!(rows.len(), 3 * 4);
    // nested-loop order: all of $a = 1 first, keys ascending within it
    let ids: Vec<&str> = rows[..4]
        .iter()
        .map(|r| r.as_list().unwrap()[1].as_str().unwrap())
        .collect();
    assert_eq!(ids, ["t00", "t03", "t06", "t09"]);
    assert!(rows[4..8]
        .iter()
        .all(|r| r.as_list().unwrap()[0] == AdmValue::Int(2)));
    // two projected dataset clauses: one scan each
    ctx.calls.set(0);
    let v = run(
        "for $s in dataset T for $t in dataset T where $s.id = $t.id return $t.id",
        &Env::new(),
        &ctx,
    )
    .unwrap();
    assert_eq!(ctx.calls.get(), 2);
    assert_eq!(v.as_list().unwrap().len(), 12);
}
