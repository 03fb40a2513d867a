//! The uniform table record every registry entry produces, its
//! `RESULTS.json` encoding, its one renderer, and the runner that
//! simulates each distinct cell of a selection once.

use std::fmt::Write as _;

use barre_system::journal::{json_escape, Json};
use barre_system::{Run, RunMetrics, SimError};

use crate::figures::Figure;
use crate::SweepError;

/// How a column's numbers print.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fmt {
    /// A ratio, three decimals and an `x`.
    X,
    /// A percentage (the value is already in percent), one decimal.
    Pct,
    /// A plain number with this many decimals (0 for counts).
    Dec(u8),
    /// Free text.
    Text,
}

impl Fmt {
    /// The format whose `Debug` spelling (what `RESULTS.json` stores)
    /// is `code`.
    fn parse(code: &str) -> Option<Fmt> {
        let all = [Fmt::X, Fmt::Pct, Fmt::Text].into_iter();
        all.chain((0..10).map(Fmt::Dec))
            .find(|f| format!("{f:?}") == code)
    }
}

/// One table cell. Numbers are kept to six decimals, so a table read
/// back from `RESULTS.json` equals the one that wrote it, and the last
/// bits of a platform's `ln`/`exp` do not reach the file.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A finite number, rounded to six decimals.
    Num(f64),
    /// Text.
    Text(String),
    /// No value (the column does not apply to this row).
    Empty,
}

impl Value {
    /// A number; non-finite values become [`Value::Empty`].
    pub fn num(x: f64) -> Value {
        if x.is_finite() {
            // `+ 0.0` turns a rounded `-0` into `0`.
            Value::Num((x * 1e6).round() / 1e6 + 0.0)
        } else {
            Value::Empty
        }
    }

    fn render(&self, fmt: Fmt) -> String {
        match (self, fmt) {
            (Value::Num(x), Fmt::X) => format!("{x:.3}x"),
            (Value::Num(x), Fmt::Pct) => format!("{x:.1}%"),
            (Value::Num(x), Fmt::Dec(d)) => format!("{x:.*}", usize::from(d)),
            (Value::Num(x), Fmt::Text) => x.to_string(),
            (Value::Text(s), _) => s.clone(),
            (Value::Empty, _) => String::new(),
        }
    }

    fn to_json(&self) -> String {
        match self {
            Value::Num(x) => x.to_string(),
            Value::Text(s) => json_escape(s),
            Value::Empty => "null".into(),
        }
    }

    fn from_json(v: &Json) -> Option<Value> {
        match v {
            Json::Null => Some(Value::Empty),
            Json::Str(s) => Some(Value::Text(s.clone())),
            v => v.as_f64().map(Value::Num),
        }
    }
}

/// The uniform record of one table or figure: named columns, and rows
/// keyed by a label.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Registry name (`fig15`).
    pub name: String,
    /// What the table shows.
    pub title: String,
    /// Header of the row-label column.
    pub key: String,
    /// Column headers and formats.
    pub columns: Vec<(String, Fmt)>,
    /// `(label, one value per column)`.
    pub rows: Vec<(String, Vec<Value>)>,
}

impl Table {
    /// The table as a Markdown pipe table, columns padded to width. This
    /// is both what `barre repro` prints and what EXPERIMENTS.md embeds.
    pub fn to_markdown(&self) -> String {
        let header: Vec<String> = std::iter::once(self.key.clone())
            .chain(self.columns.iter().map(|(n, _)| n.clone()))
            .collect();
        let body: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(label, values)| {
                std::iter::once(label.clone())
                    .chain(
                        values
                            .iter()
                            .zip(&self.columns)
                            .map(|(v, (_, fmt))| v.render(*fmt)),
                    )
                    .collect()
            })
            .collect();
        let mut width: Vec<usize> = header.iter().map(|h| h.chars().count().max(3)).collect();
        for row in &body {
            for (w, cell) in width.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let right = |i: usize| i > 0 && self.columns.get(i - 1).is_some_and(|c| c.1 != Fmt::Text);
        let line = |cells: &[String]| {
            let mut s = String::from("|");
            for (i, (cell, w)) in cells.iter().zip(&width).enumerate() {
                let pad = w - cell.chars().count();
                let (l, r) = if right(i) { (pad, 0) } else { (0, pad) };
                let _ = write!(s, " {}{cell}{} |", " ".repeat(l), " ".repeat(r));
            }
            s.push('\n');
            s
        };
        let mut out = line(&header);
        out.push('|');
        for (i, w) in width.iter().enumerate() {
            let dashes = "-".repeat(w - 1);
            out.push_str(&if right(i) {
                format!(" {dashes}: |")
            } else {
                format!(" :{dashes} |")
            });
        }
        out.push('\n');
        for row in &body {
            out.push_str(&line(row));
        }
        out
    }

    fn to_json(&self) -> String {
        let columns: Vec<String> = self
            .columns
            .iter()
            .map(|(n, f)| format!("[{}, {}]", json_escape(n), json_escape(&format!("{f:?}"))))
            .collect();
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|(label, values)| {
                let cells: Vec<String> = std::iter::once(json_escape(label))
                    .chain(values.iter().map(Value::to_json))
                    .collect();
                format!("    [{}]", cells.join(", "))
            })
            .collect();
        format!(
            "  {{\"name\": {}, \"title\": {}, \"key\": {}, \"columns\": [{}], \"rows\": [\n{}\n  ]}}",
            json_escape(&self.name),
            json_escape(&self.title),
            json_escape(&self.key),
            columns.join(", "),
            rows.join(",\n")
        )
    }

    fn from_json(v: &Json) -> Option<Table> {
        let s = |k: &str| v.get(k)?.as_str().map(str::to_string);
        let columns = v
            .get("columns")?
            .as_arr()?
            .iter()
            .map(|c| match c.as_arr()? {
                [n, f] => Some((n.as_str()?.to_string(), Fmt::parse(f.as_str()?)?)),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()?;
        let rows = v
            .get("rows")?
            .as_arr()?
            .iter()
            .map(|r| {
                let (label, values) = r.as_arr()?.split_first()?;
                let values = values
                    .iter()
                    .map(Value::from_json)
                    .collect::<Option<Vec<_>>>()?;
                (values.len() == columns.len()).then_some(())?;
                Some((label.as_str()?.to_string(), values))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Table {
            name: s("name")?,
            title: s("title")?,
            key: s("key")?,
            columns,
            rows,
        })
    }
}

/// Encodes tables as a `RESULTS.json` document, one row per line.
pub fn to_json(tables: &[Table]) -> String {
    let body: Vec<String> = tables.iter().map(Table::to_json).collect();
    format!(
        "{{\"schema\": \"barre-repro/1\", \"tables\": [\n{}\n]}}\n",
        body.join(",\n")
    )
}

/// Decodes a `RESULTS.json` document.
///
/// # Errors
///
/// A message naming the syntax error or the first malformed table.
pub fn from_json(src: &str) -> Result<Vec<Table>, String> {
    let doc = Json::parse(src)?;
    if doc.get("schema").and_then(Json::as_str) != Some("barre-repro/1") {
        return Err("not a barre-repro/1 document".into());
    }
    doc.get("tables")
        .and_then(Json::as_arr)
        .ok_or("no tables array")?
        .iter()
        .enumerate()
        .map(|(i, t)| Table::from_json(t).ok_or(format!("table {i} is malformed")))
        .collect()
}

/// Renders tables for a terminal: a heading per table, then its
/// Markdown.
pub fn render(tables: &[Table]) -> String {
    tables
        .iter()
        .map(|t| format!("## {} — {}\n\n{}\n", t.name, t.title, t.to_markdown()))
        .collect()
}

/// The tables of one registry run, and what it cost.
#[derive(Debug)]
pub struct Outcome {
    /// One table per selected figure, selection order.
    pub tables: Vec<Table>,
    /// Cells the selected figures name, repeats included.
    pub cells: usize,
    /// Distinct cells, each simulated once.
    pub simulated: usize,
}

/// Runs the selected figures: collects their cells, simulates each
/// distinct [`Run`] once with `simulate` (in production
/// [`Run::simulate`]) on `threads` pool workers, and hands every figure
/// its cells' metrics.
///
/// # Errors
///
/// The first failing cell in collection order, or the pool failure.
pub fn run(
    figures: &[Figure],
    threads: usize,
    simulate: fn(&Run) -> Result<RunMetrics, SimError>,
) -> Result<Outcome, SweepError> {
    let mut distinct: Vec<&Run> = Vec::new();
    let index: Vec<Vec<usize>> = figures
        .iter()
        .map(|f| {
            f.cells
                .iter()
                .map(|c| {
                    distinct.iter().position(|d| *d == c).unwrap_or_else(|| {
                        distinct.push(c);
                        distinct.len() - 1
                    })
                })
                .collect()
        })
        .collect();
    let jobs: Vec<_> = distinct.iter().map(|&c| move || simulate(c)).collect();
    let results = barre_sim::pool::run_ordered(jobs, threads).map_err(|e| SweepError {
        label: "<worker pool>".into(),
        error: e.into(),
    })?;
    let metrics = results
        .into_iter()
        .zip(&distinct)
        .map(|(r, c)| {
            r.map_err(|error| SweepError {
                label: c.label(),
                error,
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let tables = figures
        .iter()
        .zip(&index)
        .map(|(f, idx)| {
            let ms: Vec<&RunMetrics> = idx.iter().filter_map(|&i| metrics.get(i)).collect();
            Table {
                name: f.name.into(),
                title: f.title.into(),
                key: f.key.into(),
                columns: f.columns.clone(),
                rows: (f.extract)(&ms),
            }
        })
        .collect();
    Ok(Outcome {
        tables,
        cells: index.iter().map(Vec::len).sum(),
        simulated: distinct.len(),
    })
}
