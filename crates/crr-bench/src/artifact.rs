//! The one mechanism every tracked benchmark artifact goes through.
//!
//! Five artifacts record the §VI evaluation: `BENCH_discovery.json`
//! ([`crate::bench_json`]), `metrics.json` ([`crate::metrics_json`]),
//! `analysis.json` ([`crate::analysis_json`]), `BENCH_serving.json`
//! ([`crate::serving_json`]) and `BENCH_stream.json`
//! ([`crate::stream_json`]). Each of those modules keeps its record
//! structs, its `render` and its invariants as plain functions; this
//! module owns what they share:
//!
//! * **a typed reader** — [`document`] parses a file and checks its schema
//!   tag and its non-empty top-level array; [`Node`]'s accessors read
//!   fields with errors that name the path (`records[3].rows: ...`);
//! * **a writer** — [`Fields`] and [`Out`] own escaping, number
//!   formatting, indentation and comma placement, and [`write()`] lays out a
//!   whole file;
//! * **the registry** — [`ARTIFACTS`] maps each module's `SCHEMA` tag to
//!   its `validate`, and [`check`] dispatches on a file's own tag, so each
//!   schema name is written exactly once.
//!
//! The workspace carries no serde: parsing and escaping ride on the
//! hand-rolled JSON layer in [`crr_obs::json`]. Every layout is documented
//! field by field in `EXPERIMENTS.md`, section "Benchmark artifact
//! schemas".

use crate::{analysis_json, bench_json, metrics_json, serving_json, stream_json};
use crr_obs::json::{esc, num, parse, Json};
use std::fmt::Display;

/// A JSON value and the path that names it in error messages.
#[derive(Debug, Clone)]
pub struct Node<'a> {
    json: &'a Json,
    path: String,
}

impl<'a> Node<'a> {
    /// The document root.
    pub fn root(json: &'a Json) -> Self {
        Node {
            json,
            path: String::new(),
        }
    }

    /// The path naming this value (`records[3]`), `document` at the root.
    pub fn path(&self) -> &str {
        if self.path.is_empty() {
            "document"
        } else {
            &self.path
        }
    }

    /// The field `key` of this object, or `None` when absent.
    pub fn get(&self, key: &str) -> Option<Node<'a>> {
        let json = self.json.get(key)?;
        let path = if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.path)
        };
        Some(Node { json, path })
    }

    /// A finite number field.
    pub fn num(&self, key: &str) -> Result<f64, String> {
        self.field(key)?.as_num()
    }

    /// A non-negative integer field.
    pub fn uint(&self, key: &str) -> Result<u64, String> {
        self.field(key)?.as_uint()
    }

    /// A string field.
    pub fn str(&self, key: &str) -> Result<&'a str, String> {
        let n = self.field(key)?;
        n.json.as_str().ok_or_else(|| n.wrong("a string"))
    }

    /// A boolean field.
    pub fn bool(&self, key: &str) -> Result<bool, String> {
        let n = self.field(key)?;
        n.json.as_bool().ok_or_else(|| n.wrong("a boolean"))
    }

    /// An array field's elements, each named `key[i]`.
    pub fn arr(&self, key: &str) -> Result<Vec<Node<'a>>, String> {
        let n = self.field(key)?;
        let items = n.json.as_arr().ok_or_else(|| n.wrong("an array"))?;
        Ok(items
            .iter()
            .enumerate()
            .map(|(i, json)| Node {
                json,
                path: format!("{}[{i}]", n.path),
            })
            .collect())
    }

    /// An object field.
    pub fn obj(&self, key: &str) -> Result<Node<'a>, String> {
        let n = self.field(key)?;
        match n.json {
            Json::Obj(_) => Ok(n),
            _ => Err(n.wrong("an object")),
        }
    }

    /// This value as a finite number.
    pub fn as_num(&self) -> Result<f64, String> {
        let x = self.json.as_num().ok_or_else(|| self.wrong("a number"))?;
        if !x.is_finite() {
            return Err(format!("{}: non-finite", self.path()));
        }
        Ok(x)
    }

    /// This value as a non-negative integer.
    pub fn as_uint(&self) -> Result<u64, String> {
        let x = self.as_num()?;
        if x < 0.0 || x.fract() != 0.0 {
            return Err(format!("{}: not a non-negative integer ({x})", self.path()));
        }
        Ok(x as u64)
    }

    fn field(&self, key: &str) -> Result<Node<'a>, String> {
        if !matches!(self.json, Json::Obj(_)) {
            return Err(self.wrong("an object"));
        }
        self.get(key)
            .ok_or_else(|| format!("{}: missing key '{key}'", self.path()))
    }

    fn wrong(&self, want: &str) -> String {
        let got = match self.json {
            Json::Null => "null",
            Json::Bool(_) => "a boolean",
            Json::Num(_) => "a number",
            Json::Str(_) => "a string",
            Json::Arr(_) => "an array",
            Json::Obj(_) => "an object",
        };
        format!("{}: not {want} (got {got})", self.path())
    }
}

/// Parses `text` as a tracked artifact: a JSON object whose `schema` tag
/// is `schema` and whose top-level `array` is a non-empty array. Read the
/// returned document through [`Node::root`].
pub fn document(text: &str, schema: &str, array: &str) -> Result<Json, String> {
    let json = parse(text)?;
    let root = Node::root(&json);
    let tag = root.str("schema")?;
    if tag != schema {
        return Err(format!("unexpected schema '{tag}' (want '{schema}')"));
    }
    if root.arr(array)?.is_empty() {
        return Err(format!("'{array}' is empty"));
    }
    Ok(json)
}

/// A value laid out the way every tracked artifact is written.
#[derive(Debug, Clone)]
pub enum Out {
    /// JSON text written as is: a scalar, an inline object or a
    /// pre-rendered fragment.
    Text(String),
    /// An object with one field per line.
    Block(Fields),
    /// An array with one element per line.
    List(Vec<Out>),
}

/// Object fields in write order.
#[derive(Debug, Clone, Default)]
pub struct Fields(Vec<(&'static str, Out)>);

impl Fields {
    /// No fields yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an escaped string.
    pub fn str(self, key: &'static str, v: &str) -> Self {
        self.out(key, Out::Text(format!("\"{}\"", esc(v))))
    }

    /// Adds a number; a non-finite one is written as `null`, which every
    /// validator rejects, so a NaN measurement never passes silently.
    pub fn num(self, key: &'static str, v: f64) -> Self {
        self.out(key, Out::Text(num(v)))
    }

    /// Adds a literal written by `Display`: an integer, a boolean or
    /// pre-rendered JSON text.
    pub fn lit(self, key: &'static str, v: impl Display) -> Self {
        self.out(key, Out::Text(v.to_string()))
    }

    /// Adds a literal only when there is one.
    pub fn opt(self, key: &'static str, v: Option<impl Display>) -> Self {
        match v {
            Some(v) => self.lit(key, v),
            None => self,
        }
    }

    /// Adds any laid-out value.
    pub fn out(mut self, key: &'static str, v: Out) -> Self {
        self.0.push((key, v));
        self
    }

    /// The object on one line: `{"key": value, ...}`.
    pub fn inline(self) -> Out {
        let mut text = String::from("{");
        for (i, (key, v)) in self.0.iter().enumerate() {
            if i > 0 {
                text.push_str(", ");
            }
            text.push_str(&format!("\"{key}\": "));
            lay_out(&mut text, v, 0);
        }
        text.push('}');
        Out::Text(text)
    }

    /// The object with one field per line.
    pub fn block(self) -> Out {
        Out::Block(self)
    }
}

/// Renders a whole artifact file: the `schema` tag, then `body`'s fields,
/// one per line, with a trailing newline.
pub fn write(schema: &str, body: Fields) -> String {
    let mut doc = Fields::new().str("schema", schema);
    doc.0.extend(body.0);
    let mut text = String::new();
    lay_out(&mut text, &Out::Block(doc), 0);
    text.push('\n');
    text
}

fn lay_out(text: &mut String, v: &Out, indent: usize) {
    let (open, close, lines): (char, char, Vec<(Option<&str>, &Out)>) = match v {
        Out::Text(t) => return text.push_str(t),
        Out::Block(f) => ('{', '}', f.0.iter().map(|(k, v)| (Some(*k), v)).collect()),
        Out::List(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
    };
    let pad = " ".repeat(indent + 2);
    text.push(open);
    text.push('\n');
    for (i, (key, v)) in lines.iter().enumerate() {
        text.push_str(&pad);
        if let Some(key) = key {
            text.push_str(&format!("\"{key}\": "));
        }
        lay_out(text, v, indent + 2);
        if i + 1 < lines.len() {
            text.push(',');
        }
        text.push('\n');
    }
    text.push_str(&" ".repeat(indent));
    text.push(close);
}

/// A tracked artifact's validator: a one-line summary on success, the
/// first violation otherwise.
pub type Validate = fn(&str) -> Result<String, String>;

/// Every tracked artifact: its schema tag and its validator.
pub const ARTIFACTS: [(&str, Validate); 5] = [
    (bench_json::SCHEMA, bench_json::validate),
    (metrics_json::SCHEMA, metrics_json::validate),
    (analysis_json::SCHEMA, analysis_json::validate),
    (serving_json::SCHEMA, serving_json::validate),
    (stream_json::SCHEMA, stream_json::validate),
];

/// Validates any tracked artifact, dispatching on its own `schema` tag.
/// A tag from a known family at another version (`crr-metrics-v5`)
/// reaches that family's validator, which names the version it wants.
pub fn check(text: &str) -> Result<String, String> {
    let json = parse(text)?;
    let tag = Node::root(&json).str("schema")?;
    let (_, validate) = ARTIFACTS
        .iter()
        .find(|(schema, _)| family(schema) == family(tag))
        .ok_or_else(|| format!("unrecognized artifact schema '{tag}'"))?;
    validate(text)
}

/// A schema tag without its version suffix: `crr-metrics-v6` → `crr-metrics`.
fn family(tag: &str) -> &str {
    tag.rsplit_once('-').map_or(tag, |(f, _)| f)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per artifact: its schema, the top-level array, its golden fixture
    /// (the module's test fixture as the emitter renders it), one numeric
    /// key and one required key.
    const CASES: [(&str, &str, &str, &str, &str); 5] = [
        (
            bench_json::SCHEMA,
            "records",
            include_str!("../golden/bench.json"),
            "learn_secs",
            "rmse",
        ),
        (
            metrics_json::SCHEMA,
            "runs",
            include_str!("../golden/metrics.json"),
            "pops",
            "dataset",
        ),
        (
            analysis_json::SCHEMA,
            "runs",
            include_str!("../golden/analysis.json"),
            "conjuncts",
            "source",
        ),
        (
            serving_json::SCHEMA,
            "records",
            include_str!("../golden/serving.json"),
            "p99_ms",
            "throughput_rps",
        ),
        (
            stream_json::SCHEMA,
            "records",
            include_str!("../golden/stream.json"),
            "incremental_ms",
            "swap_served_identical",
        ),
    ];

    /// `text` with the value after the first `"key": ` replaced by `value`.
    fn set_first(text: &str, key: &str, value: &str) -> String {
        let pat = format!("\"{key}\": ");
        let start = text.find(&pat).expect("key in fixture") + pat.len();
        let end = start + text[start..].find([',', '}', '\n']).expect("value end");
        format!("{}{value}{}", &text[..start], &text[end..])
    }

    #[test]
    fn shared_failure_modes_are_rejected_for_every_schema() {
        for (schema, array, golden, num_key, req_key) in CASES {
            let direct = ARTIFACTS
                .iter()
                .find(|(s, _)| *s == schema)
                .expect(schema)
                .1;
            let validate = |text: &str| {
                let result = direct(text);
                assert_eq!(result, check(text), "{schema}: registry disagrees");
                result
            };
            validate(golden).unwrap_or_else(|e| panic!("{schema}: golden rejected: {e}"));
            let reject = |text: &str, want: &str| {
                let err = validate(text).expect_err(schema);
                assert!(err.contains(want), "{schema}: '{err}' lacks '{want}'");
            };
            let truncated: Vec<&str> = golden.lines().take(3).collect();
            reject(&truncated.join("\n"), "json parse error");
            reject("[]", "not an object");
            reject("\"x\"", "not an object");
            reject("{}", "missing key 'schema'");
            reject(&golden.replacen("\"schema\"", "\"schemx\"", 1), "'schema'");
            for tag in ["other".to_string(), format!("{}-v0", family(schema))] {
                let text = golden.replacen(schema, &tag, 1);
                let err = direct(&text).expect_err(schema);
                assert_eq!(err, format!("unexpected schema '{tag}' (want '{schema}')"));
            }
            reject(
                &format!("{{\"schema\": \"{schema}\", \"{array}\": []}}"),
                &format!("'{array}' is empty"),
            );
            reject(
                &format!("{{\"schema\": \"{schema}\", \"{array}\": 1}}"),
                "not an array",
            );
            // The writer turns a non-finite number into `null`; an
            // overflowing literal parses to infinity.
            reject(&set_first(golden, num_key, "null"), num_key);
            reject(&set_first(golden, num_key, "1e999"), "non-finite");
            reject(
                &golden.replacen(&format!("\"{req_key}\":"), "\"renamed\":", 1),
                &format!("missing key '{req_key}'"),
            );
        }
    }

    #[test]
    fn registry_rejects_unknown_tags_and_names_stale_versions() {
        let err = check("{\"schema\": \"crr-unknown-v1\", \"runs\": [1]}").expect_err("unknown");
        assert_eq!(err, "unrecognized artifact schema 'crr-unknown-v1'");
        let err = check("{\"schema\": \"crr-metrics-v5\", \"runs\": [1]}").expect_err("stale");
        assert_eq!(
            err,
            format!(
                "unexpected schema 'crr-metrics-v5' (want '{}')",
                metrics_json::SCHEMA
            )
        );
        let err = check("{\"schema\": \"crr-analysis-v1\", \"runs\": [1]}").expect_err("stale");
        assert!(err.contains("unexpected schema 'crr-analysis-v1'"), "{err}");
        assert!(check("{\"runs\": [1]}").is_err());
    }

    #[test]
    fn typed_reader_names_the_path() {
        let json = parse(r#"{"records": [{"rows": 1.5, "tag": 3, "ok": true}]}"#).unwrap();
        let records = Node::root(&json).arr("records").unwrap();
        let r = &records[0];
        assert_eq!(r.path(), "records[0]");
        assert_eq!(
            r.uint("rows").unwrap_err(),
            "records[0].rows: not a non-negative integer (1.5)"
        );
        assert_eq!(
            r.str("tag").unwrap_err(),
            "records[0].tag: not a string (got a number)"
        );
        assert_eq!(r.num("gone").unwrap_err(), "records[0]: missing key 'gone'");
        assert!(r.bool("ok").unwrap());
        assert!(r.obj("ok").is_err());
    }

    #[test]
    fn writer_lays_out_blocks_lists_and_inline_objects() {
        let body = Fields::new()
            .out(
                "runs",
                Out::List(vec![
                    Fields::new()
                        .str("name", "a\"b")
                        .num("x", f64::NAN)
                        .inline(),
                    Fields::new().lit("n", 2).opt("skip", None::<u64>).block(),
                ]),
            )
            .out("empty", Out::List(Vec::new()));
        let text = write("demo-v1", body);
        assert_eq!(
            text,
            "{\n  \"schema\": \"demo-v1\",\n  \"runs\": [\n    {\"name\": \"a\\\"b\", \"x\": null},\n    {\n      \"n\": 2\n    }\n  ],\n  \"empty\": [\n  ]\n}\n"
        );
        assert!(parse(&text).is_ok());
    }
}
