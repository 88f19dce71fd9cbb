//! Plain-text reporting helpers: aligned tables and timeseries printing
//! shared by the experiment binaries.

use lossless_flowctl::SimTime;

/// A simple fixed-width table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Table {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for i in 0..ncols {
                if i > 0 {
                    s.push_str("  ");
                }
                let pad = widths[i] - cells[i].len();
                s.push_str(&cells[i]);
                s.push_str(&" ".repeat(pad));
            }
            s.trim_end().to_string()
        };
        out.push_str(&line(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Format a time in milliseconds.
pub fn ms(t: SimTime) -> String {
    format!("{:.3}", t.as_ms_f64())
}

/// Print a standard experiment header.
pub fn header(id: &str, title: &str) {
    println!("== {id}: {title} ==");
}

/// Dump a run's sampled port series to CSV (one row per sample).
pub fn write_port_samples_csv(
    sim: &lossless_netsim::Simulator,
    path: impl AsRef<std::path::Path>,
) -> std::io::Result<()> {
    lossless_stats::export::write_csv(
        path,
        &[
            "t_us",
            "node",
            "port",
            "prio",
            "queue_bytes",
            "tx_bytes",
            "state",
            "paused",
        ],
        sim.trace.port_samples.iter().map(|s| {
            vec![
                format!("{:.3}", s.t.as_us_f64()),
                s.node.0.to_string(),
                s.port.to_string(),
                s.prio.to_string(),
                s.queue_bytes.to_string(),
                s.tx_bytes.to_string(),
                s.state.symbol().to_string(),
                (s.paused as u8).to_string(),
            ]
        }),
    )
}

/// Dump per-flow outcomes (size, FCT, marks) to CSV.
pub fn write_flows_csv(
    sim: &lossless_netsim::Simulator,
    path: impl AsRef<std::path::Path>,
) -> std::io::Result<()> {
    lossless_stats::export::write_csv(
        path,
        &[
            "flow", "src", "dst", "size", "start_us", "fct_us", "pkts", "ce", "ue",
        ],
        sim.trace.flows.iter().map(|f| {
            vec![
                f.flow.0.to_string(),
                f.src.0.to_string(),
                f.dst.0.to_string(),
                f.size.to_string(),
                format!("{:.3}", f.start.as_us_f64()),
                f.fct()
                    .map(|d| format!("{:.3}", d.as_us_f64()))
                    .unwrap_or_default(),
                f.delivered.pkts.to_string(),
                f.delivered.ce.to_string(),
                f.delivered.ue.to_string(),
            ]
        }),
    )
}

/// Minimal CLI parsing for the experiment binaries: supports
/// `--scale <f64>`, `--seed <u64>`, `--threads <usize>` and `--full`
/// (scale = 1.0).
#[derive(Debug, Clone, Copy)]
pub struct ExpArgs {
    /// Work scale factor relative to the paper's full setup (default 0.1).
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for sweep-style experiments (`--threads`, else
    /// `TCD_THREADS`, else the machine's parallelism). Results are
    /// bit-identical at any value; only wall time changes.
    pub threads: usize,
}

impl ExpArgs {
    /// Parse from `std::env::args`, with a default scale. A malformed
    /// command line prints the one-line reason and exits 2.
    pub fn parse(default_scale: f64) -> ExpArgs {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse_from(default_scale, &args).unwrap_or_else(|why| {
            eprintln!("{why} (supported: --scale F, --seed N, --threads N, --full)");
            std::process::exit(2)
        })
    }

    /// [`ExpArgs::parse`] for the figures whose set-up is fixed (one
    /// scenario, the seed-1 figure): the common flags are accepted so
    /// `run_all.sh` can hand every binary the same arguments, and
    /// reported on stderr as having no effect.
    pub fn parse_fixed() {
        Self::parse(1.0);
        let given: Vec<String> = std::env::args().skip(1).collect();
        if !given.is_empty() {
            eprintln!(
                "note: this figure's set-up is fixed; `{}` has no effect",
                given.join(" ")
            );
        }
    }

    /// The pure core of [`ExpArgs::parse`]: `args` is the command line
    /// after the program name.
    pub fn parse_from(default_scale: f64, args: &[String]) -> Result<ExpArgs, String> {
        fn value<T: std::str::FromStr>(v: Option<&String>, what: &str) -> Result<T, String> {
            v.and_then(|s| s.parse().ok())
                .ok_or_else(|| what.to_string())
        }
        let mut a = ExpArgs {
            scale: default_scale,
            seed: 1,
            threads: crate::harness::default_threads(),
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--scale" => a.scale = value(it.next(), "--scale needs a number")?,
                "--seed" => a.seed = value(it.next(), "--seed needs an integer")?,
                "--threads" => a.threads = value(it.next(), "--threads needs a positive integer")?,
                "--full" => a.scale = 1.0,
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        if a.threads == 0 {
            return Err("--threads needs a positive integer".to_string());
        }
        // `!(x > 0)` rather than `x <= 0` so that NaN is refused too.
        if !(a.scale > 0.0 && a.scale.is_finite()) {
            return Err("--scale needs a positive number".to_string());
        }
        Ok(a)
    }

    /// Scale an integer quantity, keeping at least `min`.
    pub fn scaled(&self, full: usize, min: usize) -> usize {
        ((full as f64 * self.scale).round() as usize).max(min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["a", "1"]);
        t.row(vec!["longer", "2.5"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a"));
        // Columns align: "value" starts at the same offset everywhere.
        let col = lines[0].find("value").unwrap();
        assert_eq!(lines[2].chars().nth(col - 1), Some(' '));
    }

    #[test]
    #[should_panic]
    fn row_arity_checked() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only one"]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(pct(0.266), "26.6%");
        assert_eq!(ms(SimTime::from_us(1500)), "1.500");
    }

    #[test]
    fn exp_args_parse_or_say_why() {
        let parse = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            ExpArgs::parse_from(0.05, &args)
        };
        let a = parse(&["--seed", "7", "--threads", "3"]).unwrap();
        assert_eq!((a.scale, a.seed, a.threads), (0.05, 7, 3));
        assert_eq!(parse(&["--full"]).unwrap().scale, 1.0);
        assert_eq!(parse(&["--scale", "0.5"]).unwrap().scale, 0.5);
        for (bad, why) in [
            (&["--seed", "seven"][..], "--seed needs an integer"),
            (&["--seed"], "--seed needs an integer"),
            (&["--scale", "0"], "--scale needs a positive number"),
            (&["--scale", "nan"], "--scale needs a positive number"),
            (&["--threads", "0"], "--threads needs a positive integer"),
            (&["--threads", "-1"], "--threads needs a positive integer"),
            (&["--fast"], "unknown argument: --fast"),
        ] {
            assert_eq!(parse(bad).unwrap_err(), why, "{bad:?}");
        }
    }

    #[test]
    fn scaled_respects_minimum() {
        let a = ExpArgs {
            scale: 0.01,
            seed: 1,
            threads: 1,
        };
        assert_eq!(a.scaled(40_000, 100), 400);
        assert_eq!(a.scaled(50, 100), 100);
    }
}
