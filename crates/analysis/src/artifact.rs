//! Experiment artifacts: tables and figure series, with text and CSV
//! rendering.
//!
//! Every experiment produces one or more artifacts. A [`Table`] maps to a
//! paper table; a [`SeriesSet`] carries the `(x, y)` series a figure
//! plots. Both render to aligned text for the terminal and to CSV for
//! external plotting.

use std::fmt::Write as _;

use telemetry::json::Json;

/// A rendered table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Artifact id (e.g. `T1`, `F6-summary`).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows (each the same length as `headers`).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the header count — that is
    /// a programming error in an experiment pipeline, not a data error.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width mismatch in table {}",
            self.id
        );
        self.rows.push(row);
    }

    /// Renders as aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "[{}] {}", self.id, self.title);
        let header_line: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{:>w$}", h, w = widths[i]))
            .collect();
        let _ = writeln!(out, "{}", header_line.join("  "));
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        out
    }

    /// Renders as CSV.
    fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }
}

/// One named series of `(x, y)` points.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend name.
    pub name: String,
    /// The points, in plot order.
    pub points: Vec<(f64, f64)>,
}

/// A figure: several series over shared axes.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSet {
    /// Artifact id (e.g. `F9`).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The series.
    pub series: Vec<Series>,
}

impl SeriesSet {
    /// Creates an empty figure.
    pub(crate) fn new(id: &str, title: &str, x_label: &str, y_label: &str) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            x_label: x_label.to_string(),
            y_label: y_label.to_string(),
            series: Vec::new(),
        }
    }

    /// Adds a series.
    pub(crate) fn push_series(&mut self, name: &str, points: Vec<(f64, f64)>) {
        self.series.push(Series {
            name: name.to_string(),
            points,
        });
    }

    /// Renders the series as aligned text columns (x then one column per
    /// series, rows joined on x where series share x values).
    fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "[{}] {}", self.id, self.title);
        let _ = writeln!(out, "x = {}, y = {}", self.x_label, self.y_label);
        for s in &self.series {
            let _ = writeln!(out, "  series `{}` ({} points):", s.name, s.points.len());
            for (x, y) in &s.points {
                let _ = writeln!(out, "    {x:>12.4}  {y:>14.6}");
            }
        }
        out
    }

    /// Renders as long-form CSV: `series,x,y`.
    fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "series,{},{}", self.x_label, self.y_label);
        for s in &self.series {
            for (x, y) in &s.points {
                let _ = writeln!(out, "{},{},{}", s.name, x, y);
            }
        }
        out
    }
}

/// Any experiment output.
#[derive(Debug, Clone, PartialEq)]
pub enum Artifact {
    /// A table artifact.
    Table(Table),
    /// A figure artifact.
    Figure(SeriesSet),
}

impl Artifact {
    /// The artifact id.
    pub fn id(&self) -> &str {
        match self {
            Artifact::Table(t) => &t.id,
            Artifact::Figure(f) => &f.id,
        }
    }

    /// Renders as text.
    pub fn render(&self) -> String {
        match self {
            Artifact::Table(t) => t.render(),
            Artifact::Figure(f) => f.render(),
        }
    }

    /// Renders as CSV.
    pub fn to_csv(&self) -> String {
        match self {
            Artifact::Table(t) => t.to_csv(),
            Artifact::Figure(f) => f.to_csv(),
        }
    }

    /// The artifact as JSON (`repro --json`), tagged by variant —
    /// `{"Table": {...}}` or `{"Figure": {...}}` — with keys in
    /// field-declaration order and each point an `[x, y]` pair.
    pub fn to_json(&self) -> Json {
        match self {
            Artifact::Table(t) => Json::object([(
                "Table",
                Json::object([
                    ("id", (&t.id).into()),
                    ("title", (&t.title).into()),
                    ("headers", t.headers.iter().collect()),
                    (
                        "rows",
                        t.rows
                            .iter()
                            .map(|row| row.iter().collect::<Json>())
                            .collect(),
                    ),
                ]),
            )]),
            Artifact::Figure(f) => Json::object([(
                "Figure",
                Json::object([
                    ("id", (&f.id).into()),
                    ("title", (&f.title).into()),
                    ("x_label", (&f.x_label).into()),
                    ("y_label", (&f.y_label).into()),
                    (
                        "series",
                        f.series
                            .iter()
                            .map(|s| {
                                Json::object([
                                    ("name", (&s.name).into()),
                                    (
                                        "points",
                                        s.points
                                            .iter()
                                            .map(|&(x, y)| Json::from_iter([x, y]))
                                            .collect(),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ]),
            )]),
        }
    }
}

/// Error from [`decode_artifacts`]: what made the text undecodable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CodecError {
    message: String,
}

impl CodecError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CodecError {}

/// First line of every [`encode_artifacts`] payload; bumped with the
/// format.
const CODEC_HEADER: &str = "artifacts-codec v1";

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> Result<String, CodecError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            other => {
                return Err(CodecError::new(format!(
                    "bad escape `\\{}`",
                    other.map_or_else(String::new, String::from)
                )))
            }
        }
    }
    Ok(out)
}

/// Serializes artifacts to the line-based codec the artifact cache
/// stores (see [`crate::cache`]).
///
/// The encoding is **byte-deterministic** (no maps, no float
/// formatting — point coordinates are written as raw IEEE-754 bits) and
/// **self-contained**: unlike the `--json` form it involves no text float
/// formatting, so an entry written in one build environment decodes
/// identically in another. Strings are
/// newline-escaped; every list is length-prefixed so truncation is
/// always detectable.
pub(crate) fn encode_artifacts(artifacts: &[Artifact]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{CODEC_HEADER}");
    let _ = writeln!(out, "artifacts {}", artifacts.len());
    for artifact in artifacts {
        match artifact {
            Artifact::Table(t) => {
                let _ = writeln!(out, "table {}", escape(&t.id));
                let _ = writeln!(out, "title {}", escape(&t.title));
                let _ = writeln!(out, "headers {}", t.headers.len());
                for h in &t.headers {
                    let _ = writeln!(out, "{}", escape(h));
                }
                let _ = writeln!(out, "rows {}", t.rows.len());
                for row in &t.rows {
                    for cell in row {
                        let _ = writeln!(out, "{}", escape(cell));
                    }
                }
            }
            Artifact::Figure(f) => {
                let _ = writeln!(out, "figure {}", escape(&f.id));
                let _ = writeln!(out, "title {}", escape(&f.title));
                let _ = writeln!(out, "xlabel {}", escape(&f.x_label));
                let _ = writeln!(out, "ylabel {}", escape(&f.y_label));
                let _ = writeln!(out, "series {}", f.series.len());
                for s in &f.series {
                    let _ = writeln!(out, "name {}", escape(&s.name));
                    let _ = writeln!(out, "points {}", s.points.len());
                    for (x, y) in &s.points {
                        let _ = writeln!(out, "{:016x} {:016x}", x.to_bits(), y.to_bits());
                    }
                }
            }
        }
    }
    out
}

/// Decodes an [`encode_artifacts`] payload. Any structural defect —
/// wrong header, bad counts, truncation, malformed escapes or float
/// bits — is a [`CodecError`], never a panic: the cache treats it as a
/// corrupt entry and recomputes.
pub(crate) fn decode_artifacts(text: &str) -> Result<Vec<Artifact>, CodecError> {
    let mut lines = text.lines();
    let mut next = move || lines.next().ok_or_else(|| CodecError::new("truncated"));
    let field = |line: &str, tag: &str| -> Result<String, CodecError> {
        line.strip_prefix(tag)
            .and_then(|rest| rest.strip_prefix(' '))
            .map(str::to_string)
            .ok_or_else(|| CodecError::new(format!("expected `{tag} ...`, got `{line}`")))
    };
    let count = |line: &str, tag: &str| -> Result<usize, CodecError> {
        field(line, tag)?
            .parse()
            .map_err(|_| CodecError::new(format!("bad {tag} count in `{line}`")))
    };

    if next()? != CODEC_HEADER {
        return Err(CodecError::new("unknown codec header"));
    }
    let n = count(next()?, "artifacts")?;
    let mut artifacts = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let kind_line = next()?.to_string();
        if let Ok(id) = field(&kind_line, "table") {
            let mut t = Table {
                id: unescape(&id)?,
                title: unescape(&field(next()?, "title")?)?,
                headers: Vec::new(),
                rows: Vec::new(),
            };
            let headers = count(next()?, "headers")?;
            for _ in 0..headers {
                t.headers.push(unescape(next()?)?);
            }
            let rows = count(next()?, "rows")?;
            for _ in 0..rows {
                let mut row = Vec::with_capacity(headers);
                for _ in 0..headers {
                    row.push(unescape(next()?)?);
                }
                t.rows.push(row);
            }
            artifacts.push(Artifact::Table(t));
        } else if let Ok(id) = field(&kind_line, "figure") {
            let mut f = SeriesSet {
                id: unescape(&id)?,
                title: unescape(&field(next()?, "title")?)?,
                x_label: unescape(&field(next()?, "xlabel")?)?,
                y_label: unescape(&field(next()?, "ylabel")?)?,
                series: Vec::new(),
            };
            let series = count(next()?, "series")?;
            for _ in 0..series {
                let name = unescape(&field(next()?, "name")?)?;
                let points = count(next()?, "points")?;
                let mut pts = Vec::with_capacity(points.min(65536));
                for _ in 0..points {
                    let line = next()?;
                    let (x, y) = line
                        .split_once(' ')
                        .ok_or_else(|| CodecError::new(format!("bad point `{line}`")))?;
                    let parse = |s: &str| {
                        u64::from_str_radix(s, 16)
                            .map(f64::from_bits)
                            .map_err(|_| CodecError::new(format!("bad float bits `{s}`")))
                    };
                    pts.push((parse(x)?, parse(y)?));
                }
                f.series.push(Series { name, points: pts });
            }
            artifacts.push(Artifact::Figure(f));
        } else {
            return Err(CodecError::new(format!(
                "expected `table ...` or `figure ...`, got `{kind_line}`"
            )));
        }
    }
    Ok(artifacts)
}

/// Formats a float with `digits` decimal places (table cell helper).
pub(crate) fn fmt(value: f64, digits: usize) -> String {
    format!("{value:.digits$}")
}

/// Formats a fraction as a percentage with one decimal.
pub(crate) fn pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("T0", "demo", &["name", "value"]);
        t.push_row(vec!["a".to_string(), "1".to_string()]);
        t.push_row(vec!["longer".to_string(), "22".to_string()]);
        let s = t.render();
        assert!(s.contains("[T0] demo"));
        assert!(s.contains("name"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        // All data lines share the same width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("T0", "demo", &["a", "b"]);
        t.push_row(vec!["only-one".to_string()]);
    }

    #[test]
    fn table_csv() {
        let mut t = Table::new("T0", "demo", &["a", "b"]);
        t.push_row(vec!["x".to_string(), "1".to_string()]);
        assert_eq!(t.to_csv(), "a,b\nx,1\n");
    }

    #[test]
    fn series_render_and_csv() {
        let mut f = SeriesSet::new("F0", "demo fig", "n", "err");
        f.push_series("mem", vec![(1.0, 0.5), (2.0, 0.25)]);
        f.push_series("disk", vec![(1.0, 0.9)]);
        let s = f.render();
        assert!(s.contains("series `mem` (2 points)"));
        let csv = f.to_csv();
        assert!(csv.starts_with("series,n,err\n"));
        assert!(csv.contains("disk,1,0.9"));
    }

    #[test]
    fn artifact_dispatch() {
        let t = Artifact::Table(Table::new("T9", "t", &["h"]));
        let f = Artifact::Figure(SeriesSet::new("F9", "f", "x", "y"));
        assert_eq!(t.id(), "T9");
        assert_eq!(f.id(), "F9");
        assert!(t.render().contains("T9"));
        assert!(f.to_csv().contains("series"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(pct(0.756), "75.6%");
    }

    #[test]
    fn codec_round_trips_tables_and_figures() {
        let mut t = Table::new("T1", "multi\nline title", &["a\\b", "c"]);
        t.push_row(vec!["x\r\n".to_string(), String::new()]);
        let mut f = SeriesSet::new("F1", "fig", "x", "y");
        f.push_series("exact", vec![(0.1, -0.0), (f64::NAN, f64::INFINITY)]);
        f.push_series("empty", vec![]);
        let input = vec![Artifact::Table(t), Artifact::Figure(f)];

        let encoded = encode_artifacts(&input);
        assert!(encoded.starts_with(CODEC_HEADER));
        let decoded = decode_artifacts(&encoded).unwrap();
        // PartialEq fails on the NaN point, so compare by re-encoding:
        // bit-exact floats round-trip to identical bytes.
        assert_eq!(encode_artifacts(&decoded), encoded);
        assert_eq!(decoded.len(), 2);
        match &decoded[0] {
            Artifact::Table(t) => {
                assert_eq!(t.title, "multi\nline title");
                assert_eq!(t.rows[0][0], "x\r\n");
            }
            other => panic!("expected table, got {}", other.id()),
        }
    }

    #[test]
    fn codec_rejects_damage_without_panicking() {
        let encoded = encode_artifacts(&[Artifact::Table(Table::new("T1", "t", &["h"]))]);
        for bad in [
            "",
            "not-a-codec v9\nartifacts 0\n",
            &encoded[..encoded.len() - 4],              // truncated
            &encoded.replace("table T1", "blob T1"),    // unknown artifact kind
            &encoded.replace("headers 1", "headers x"), // bad count
        ] {
            assert!(decode_artifacts(bad).is_err(), "accepted: {bad:?}");
        }
        assert!(decode_artifacts(&encode_artifacts(&[])).unwrap().is_empty());
    }
}
