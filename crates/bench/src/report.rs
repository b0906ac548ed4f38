//! The one report path of the `expts` gates.
//!
//! A report supplies its field list (typed [`Value`]s, rows included)
//! and its gate ([`Report::passes`]); this module renders everything
//! else from that list: the JSON artifact (identity line, stamp block,
//! fields, `pass`), the console summary, and the markdown/CSV tables.
//! Numbers go through [`json_number`] (shortest round-trip form, `null`
//! for NaN and ±∞) and strings through [`json_string`], so every
//! artifact is valid JSON whatever the run measured.

use std::fmt::Write as _;

use llama_core::faults::FaultPlan;

use crate::perf::allocs_per_tick;

/// One typed value of a report's field list.
#[derive(Clone, Debug)]
pub enum Value {
    /// JSON `null` (an absent measurement).
    Null,
    /// A flag.
    Bool(bool),
    /// A count, size or seed.
    Int(u64),
    /// A measurement; non-finite values serialize as `null`.
    Num(f64),
    /// Text.
    Str(String),
    /// An already-rendered single-line JSON value (the telemetry block).
    Raw(String),
    /// An array.
    List(Vec<Value>),
    /// An object: one row of a table, or a nested record.
    Obj(Vec<Field>),
}

/// One named entry of a report or a row.
pub type Field = (&'static str, Value);

/// A record that renders as one row (JSON object, table line).
pub trait Row {
    /// The row's fields, in column order.
    fn row(&self) -> Vec<Field>;
}

impl Value {
    /// An array of rows.
    pub fn rows<T: Row>(items: &[T]) -> Self {
        Self::List(items.iter().map(|r| Self::Obj(r.row())).collect())
    }

    /// An array of scalars.
    pub fn list<T: Clone + Into<Value>>(items: &[T]) -> Self {
        Self::List(items.iter().cloned().map(Into::into).collect())
    }

    /// The rows of a non-empty list of rows; `None` for anything else.
    fn rows_of(&self) -> Option<impl Iterator<Item = &Vec<Field>>> {
        match self {
            Self::List(items) if items.iter().any(|v| matches!(v, Self::Obj(_))) => {
                Some(items.iter().filter_map(|v| match v {
                    Self::Obj(row) => Some(row),
                    _ => None,
                }))
            }
            _ => None,
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Self::Bool(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Self::Int(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Self::Int(v as u64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Self::Num(v)
    }
}

impl From<Option<f64>> for Value {
    fn from(v: Option<f64>) -> Self {
        v.map_or(Self::Null, Self::Num)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Self::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Self::Str(v)
    }
}

/// A gate's report: its field list and its verdict. [`render`] turns it
/// into every output, one implementation for all.
pub trait Report {
    /// Heading of the console summary.
    fn title(&self) -> String;
    /// The identity line that opens the JSON document (`"pr": 2`,
    /// `"scenario": "office-floor"`, …).
    fn identity(&self) -> Field;
    /// The fault configuration the run was measured under.
    fn faults(&self) -> FaultPlan {
        FaultPlan::none()
    }
    /// The aggregated telemetry block (single-line JSON object): the
    /// null block unless the run carried a live recorder.
    fn telemetry(&self) -> String {
        rfmath::telemetry::null_block_json()
    }
    /// Everything else the artifact records, in order.
    fn fields(&self) -> Vec<Field>;
    /// Whether the gate holds.
    fn passes(&self) -> bool;
    /// Console-only lines printed under the fields.
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }
    /// The JSONL event log, for reports that capture one.
    fn event_log(&self) -> &str {
        ""
    }
}

/// The outputs a report renders to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// The console summary.
    Summary,
    /// The JSON document.
    Json,
    /// The report's event log, one JSON object per line.
    Jsonl,
    /// The report's first list of rows as a markdown table.
    Markdown,
    /// The same rows as CSV.
    Csv,
}

/// Renders `report` in `format`.
pub fn render<R: Report + ?Sized>(report: &R, format: Format) -> String {
    match format {
        Format::Summary => {
            let mut out = format!("== {}\n", report.title());
            let (key, id) = report.identity();
            let _ = writeln!(out, "{key:>38}: {}", console(&id));
            for (key, value) in report.fields() {
                match value.rows_of() {
                    Some(rows) => {
                        let _ = writeln!(out, "{key:>38}:");
                        for row in rows {
                            let _ = writeln!(out, "{:>40}{}", "", console_row(row));
                        }
                    }
                    None => {
                        let _ = writeln!(out, "{key:>38}: {}", console(&value));
                    }
                }
            }
            for note in report.notes() {
                let _ = writeln!(out, "{:>40}{note}", "");
            }
            let verdict = if report.passes() { "PASS" } else { "FAIL" };
            let _ = writeln!(out, "{:>38}: {verdict}", "pass");
            out
        }
        Format::Json => {
            let mut doc = vec![report.identity()];
            doc.extend(stamp(&report.faults(), report.telemetry()));
            doc.extend(report.fields());
            doc.push(("pass", report.passes().into()));
            let mut out = String::from("{\n");
            for (i, (key, value)) in doc.iter().enumerate() {
                let _ = write!(out, "  {}: ", json_string(key));
                match value.rows_of() {
                    Some(rows) => {
                        let rows: Vec<String> = rows.map(|r| json_object(r)).collect();
                        let _ = write!(out, "[\n    {}\n  ]", rows.join(",\n    "));
                    }
                    None => out.push_str(&json(value)),
                }
                out.push_str(if i + 1 < doc.len() { ",\n" } else { "\n" });
            }
            out.push_str("}\n");
            out
        }
        Format::Jsonl => report.event_log().to_string(),
        Format::Markdown | Format::Csv => table(&report.fields(), format),
    }
}

/// The stamp block every artifact carries after its identity line:
/// machine topology, steady-state allocation count, the fault
/// configuration and the aggregated telemetry. A number measured on one
/// core, under injected faults or without allocation counting cannot
/// then pass for something else.
fn stamp(plan: &FaultPlan, telemetry: String) -> Vec<Field> {
    vec![
        (
            "machine",
            Value::Obj(vec![
                (
                    "logical_cores",
                    std::thread::available_parallelism()
                        .map_or(1, |n| n.get())
                        .into(),
                ),
                ("threads_used", rfmath::par::budget().into()),
            ]),
        ),
        ("allocs_per_tick", allocs_per_tick().into()),
        (
            "faults",
            Value::Obj(vec![
                ("seed", plan.seed.into()),
                ("panel_outage_rate", plan.panel_outage_rate.into()),
                ("report_loss_rate", plan.report_loss_rate.into()),
                ("psu_glitch_rate", plan.psu_glitch_rate.into()),
                ("scripted_outages", plan.outages.len().into()),
                ("dead_columns", plan.dead_columns.len().into()),
                ("max_report_attempts", plan.retry.max_attempts.into()),
            ]),
        ),
        ("telemetry", Value::Raw(telemetry)),
    ]
}

/// One value as inline JSON.
fn json(value: &Value) -> String {
    match value {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Int(n) => n.to_string(),
        Value::Num(v) => json_number(*v),
        Value::Str(s) => json_string(s),
        Value::Raw(raw) => raw.clone(),
        Value::List(items) => format!(
            "[{}]",
            items.iter().map(json).collect::<Vec<_>>().join(", ")
        ),
        Value::Obj(fields) => json_object(fields),
    }
}

/// A record as an inline JSON object.
fn json_object(fields: &[Field]) -> String {
    let fields: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json(v)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// One value as console text: numbers to four decimals, trailing zeros
/// trimmed; rows as `key=value` pairs.
fn console(value: &Value) -> String {
    match value {
        Value::Null => "n/a".to_string(),
        Value::Num(v) if v.is_finite() => {
            let s = format!("{v:.4}");
            s.trim_end_matches('0').trim_end_matches('.').to_string()
        }
        Value::Num(v) => v.to_string(),
        Value::Str(s) => s.clone(),
        Value::List(items) => items.iter().map(console).collect::<Vec<_>>().join(", "),
        Value::Obj(fields) => console_row(fields),
        other => json(other),
    }
}

/// A record as console `key=value` pairs.
fn console_row(fields: &[Field]) -> String {
    let pairs: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{k}={}", console(v)))
        .collect();
    pairs.join(" ")
}

/// The first list of rows in `fields` as a markdown table (console
/// numbers, for reading) or a CSV table (JSON numbers, for loading),
/// one column per row key.
fn table(fields: &[Field], format: Format) -> String {
    let rows: Vec<&Vec<Field>> = fields
        .iter()
        .find_map(|(_, v)| v.rows_of())
        .into_iter()
        .flatten()
        .collect();
    let Some(first) = rows.first() else {
        return String::new();
    };
    let header: Vec<&str> = first.iter().map(|(k, _)| *k).collect();
    let cells = |row: &Vec<Field>| -> Vec<String> {
        row.iter()
            .map(|(_, v)| match (v, format) {
                (Value::Str(s), Format::Csv) if s.contains([',', '"', '\n']) => {
                    format!("\"{}\"", s.replace('"', "\"\""))
                }
                (Value::Str(s), _) => s.clone(),
                (v, Format::Csv) => json(v),
                (v, _) => console(v),
            })
            .collect()
    };
    let mut out = String::new();
    if format == Format::Csv {
        let _ = writeln!(out, "{}", header.join(","));
        for row in rows {
            let _ = writeln!(out, "{}", cells(row).join(","));
        }
    } else {
        let _ = writeln!(out, "| {} |", header.join(" | "));
        let _ = writeln!(out, "|{}", "---|".repeat(header.len()));
        for row in rows {
            let _ = writeln!(out, "| {} |", cells(row).join(" | "));
        }
    }
    out
}

/// A JSON number: the shortest form that round-trips, `null` for NaN
/// and ±∞ (JSON has no token for them).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal (escapes quotes, backslashes and control
/// characters).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioReport;

    /// A strict recursive-descent JSON validator: `Some(rest)` after one
    /// value, `None` on anything JSON does not allow (`NaN`, `inf`,
    /// unescaped quotes, trailing commas).
    fn value(s: &str) -> Option<&str> {
        let s = s.trim_start();
        match s.chars().next()? {
            '{' | '[' => {
                let (open, close) = if s.starts_with('{') {
                    ('{', '}')
                } else {
                    ('[', ']')
                };
                let mut rest = s.strip_prefix(open)?.trim_start();
                if let Some(r) = rest.strip_prefix(close) {
                    return Some(r);
                }
                loop {
                    if open == '{' {
                        rest = string(rest.trim_start())?.trim_start().strip_prefix(':')?;
                    }
                    rest = value(rest)?.trim_start();
                    if let Some(r) = rest.strip_prefix(close) {
                        return Some(r);
                    }
                    rest = rest.strip_prefix(',')?;
                }
            }
            '"' => string(s),
            '-' | '0'..='9' => {
                let end = s
                    .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
                    .unwrap_or(s.len());
                s[..end].parse::<f64>().ok().filter(|v| v.is_finite())?;
                Some(&s[end..])
            }
            _ => ["null", "true", "false"]
                .iter()
                .find_map(|l| s.strip_prefix(l)),
        }
    }

    fn string(s: &str) -> Option<&str> {
        let mut chars = s.strip_prefix('"')?.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => return Some(&s[i + 2..]),
                '\\' => {
                    chars.next()?;
                }
                c if (c as u32) < 0x20 => return None,
                _ => {}
            }
        }
        None
    }

    fn assert_valid_json(doc: &str) {
        assert_eq!(value(doc).map(str::trim), Some(""), "invalid JSON:\n{doc}");
    }

    #[test]
    fn the_validator_rejects_what_json_forbids() {
        assert_valid_json("{\"a\": [1, -2.5e-3, null, true], \"b\": {\"c\": \"q\\\"\"}}");
        for bad in ["{\"a\": NaN}", "{\"a\": inf}", "[1,]", "{\"a\" 1}", "\"x"] {
            assert_ne!(value(bad).map(str::trim), Some(""), "{bad}");
        }
    }

    /// A room that serves nobody scores `-inf` (what `SimReport` returns
    /// for such a tick), a degenerate run can average to NaN, and a
    /// description may quote: the artifact must still be valid JSON.
    #[test]
    fn non_finite_values_and_quotes_serialize_to_valid_json() {
        let report = ScenarioReport {
            name: "quoted".to_string(),
            description: "a \"dark\" room\\corner".to_string(),
            seed: 1,
            devices: 0,
            panels: 1,
            ticks: 2,
            mean_duty: f64::NAN,
            mean_min_power_dbm: f64::NEG_INFINITY,
            probes: 0,
            links_reprepared: 0,
            links_rebound: 0,
            handoffs: 0,
            wall_ms: f64::INFINITY,
            telemetry: rfmath::telemetry::null_block_json(),
        };
        let json = render(&report, Format::Json);
        assert_valid_json(&json);
        assert!(json.contains("\"mean_min_power_dbm\": null,"));
        assert!(json.contains("\"mean_duty\": null,"));
        assert!(json.contains("\"description\": \"a \\\"dark\\\" room\\\\corner\","));
        for token in ["inf", "NaN"] {
            assert!(
                !json.to_lowercase().contains(&token.to_lowercase()),
                "{json}"
            );
        }
        assert!(json.contains("\"pass\": false"));
        assert!(render(&report, Format::Summary).contains("FAIL"));
    }

    #[test]
    fn numbers_take_the_shortest_round_trip_form() {
        for v in [0.1, 2.0, -61.5, 1e-7, 123456.789, 0.1 + 0.2] {
            assert_eq!(
                json_number(v).parse::<f64>().unwrap().to_bits(),
                v.to_bits()
            );
        }
        assert_eq!(json_number(0.9), "0.9");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::NEG_INFINITY), "null");
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    struct Cell(&'static str, f64);

    impl Row for Cell {
        fn row(&self) -> Vec<Field> {
            vec![("room", self.0.into()), ("ms", self.1.into())]
        }
    }

    struct Table(Vec<Cell>);

    impl Report for Table {
        fn title(&self) -> String {
            "table".to_string()
        }
        fn identity(&self) -> Field {
            ("pr", 0u64.into())
        }
        fn fields(&self) -> Vec<Field> {
            vec![
                ("axes", Value::Obj(vec![("n", Value::list(&[1usize, 2]))])),
                ("cells", Value::rows(&self.0)),
                ("empty", Value::rows::<Cell>(&[])),
            ]
        }
        fn passes(&self) -> bool {
            true
        }
    }

    #[test]
    fn rows_render_as_json_markdown_and_csv() {
        let table = Table(vec![Cell("a,b", 1.5), Cell("c", f64::NAN)]);
        let json = render(&table, Format::Json);
        assert_valid_json(&json);
        assert!(json.contains("\"axes\": {\"n\": [1, 2]},"));
        assert!(json.contains("    {\"room\": \"a,b\", \"ms\": 1.5},\n"));
        assert!(json.contains("\"empty\": [],"));
        assert!(json.contains("\"telemetry\": {\"mode\": \"null\"},"));
        assert_eq!(
            render(&table, Format::Csv),
            "room,ms\n\"a,b\",1.5\nc,null\n"
        );
        assert_eq!(
            render(&table, Format::Markdown),
            "| room | ms |\n|---|---|\n| a,b | 1.5 |\n| c | NaN |\n"
        );
        let summary = render(&table, Format::Summary);
        assert!(summary.contains("room=a,b ms=1.5"));
        assert!(summary.contains("PASS"));
    }
}
