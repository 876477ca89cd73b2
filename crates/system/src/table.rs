//! The evaluation's tables, each declared once.
//!
//! A [`Table`] is a column list: a [`Column`] names its printed header,
//! width and decimals, and the function that reads its value off a
//! [`RunReport`]. [`Table::render`] prints the aligned text table from that
//! one list, so a column added to a declaration below shows up in the
//! printed table and nowhere else has to hear of it. It works on a slice of
//! runs — a whole campaign or one section of it — and hands every column
//! the slice's first run, which is what "normalized" is normalized against.

use tc_types::TrafficClass;

use crate::campaign::CampaignRun;
use crate::report::RunReport;

/// One cell of a table, before it is formatted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A counter, printed exactly.
    Count(u64),
    /// A measurement, rounded to the column's decimals.
    Real(f64),
    /// A percentage: a measurement printed with a `%` after it.
    Pct(f64),
    /// A fixed word (a verdict).
    Word(&'static str),
}
use Value::{Count, Pct, Real, Word};

/// One column of a [`Table`].
#[derive(Debug, Clone, Copy)]
pub struct Column {
    /// The printed header.
    pub header: &'static str,
    /// Printed width of the header and of every cell (its `%` included).
    pub width: usize,
    /// Decimals of a printed measurement.
    pub decimals: usize,
    /// Reads the cell of `run`, a run of a slice whose first run is `first`.
    pub value: fn(run: &RunReport, first: &RunReport) -> Value,
}

impl Column {
    /// A column under `header`, `width` wide, printing measurements with
    /// `decimals` decimals.
    pub const fn new(
        header: &'static str,
        width: usize,
        decimals: usize,
        value: fn(&RunReport, &RunReport) -> Value,
    ) -> Column {
        Column {
            header,
            width,
            decimals,
            value,
        }
    }

    fn cell(&self, value: Value) -> String {
        match value {
            Count(n) => n.to_string(),
            Real(x) => format!("{x:.d$}", d = self.decimals),
            Pct(x) => format!("{x:.d$}%", d = self.decimals),
            Word(word) => word.to_string(),
        }
    }
}

/// A table of the evaluation: a label column and a list of value columns.
#[derive(Debug, Clone, Copy)]
pub struct Table {
    /// Header and width of the left-aligned label column (the run's label).
    pub label: (&'static str, usize),
    /// The value columns, in printed order.
    pub columns: &'static [Column],
    /// Label of a closing row that holds every column's mean over the runs.
    pub mean_row: Option<&'static str>,
}

impl Table {
    fn line(&self, label: &str, cells: impl Iterator<Item = String>) -> String {
        let mut line = format!("{label:<width$}", width = self.label.1);
        for (column, cell) in self.columns.iter().zip(cells) {
            line.push_str(&format!(" {cell:>width$}", width = column.width));
        }
        line.push('\n');
        line
    }

    /// The aligned text table of `runs` under `title`: a header line, one
    /// line per run, and the mean row if the table has one.
    pub fn render(&self, title: &str, runs: &[CampaignRun]) -> String {
        let headers = self.columns.iter().map(|c| c.header.to_string());
        let mut out = format!("{title}\n{}", self.line(self.label.0, headers));
        for run in runs {
            let cells = self.columns.iter();
            out.push_str(&self.line(
                &run.label,
                cells.map(|c| c.cell((c.value)(&run.report, &runs[0].report))),
            ));
        }
        if let Some(label) = self.mean_row {
            let mean = |c: &Column| {
                let sum = runs.iter().fold(0.0, |sum, run| {
                    let Pct(share) = (c.value)(&run.report, &runs[0].report) else {
                        unreachable!("only a table of percentages declares a mean row");
                    };
                    sum + share / runs.len() as f64
                });
                c.cell(Pct(sum))
            };
            out.push_str(&self.line(label, self.columns.iter().map(mean)));
        }
        out
    }
}

const C2C_MISSES: Column = Column::new("c2c misses", 12, 1, |r, _| {
    Pct(100.0 * r.misses.cache_to_cache_fraction())
});

/// Normalized runtime (Figures 4a / 5a; smaller is better): cycles per
/// transaction, and the same normalized against the slice's first run.
pub const RUNTIME: Table = Table {
    label: ("configuration", 38),
    columns: &[
        Column::new("cycles/txn", 16, 0, |r, _| Real(r.cycles_per_transaction())),
        Column::new("normalized", 12, 3, |r, first| {
            Real(r.cycles_per_transaction() / first.cycles_per_transaction())
        }),
        C2C_MISSES,
    ],
    mean_row: None,
};

fn class_bytes(run: &RunReport, class: TrafficClass) -> Value {
    Real(run.traffic_breakdown().class(class))
}

/// Traffic in link-crossing bytes per miss by message class, the stacked
/// bars of Figures 4b / 5b.
pub const TRAFFIC: Table = Table {
    label: ("configuration", 24),
    columns: &[
        Column::new("data+wb", 12, 1, |r, _| {
            class_bytes(r, TrafficClass::DataResponseOrWriteback)
        }),
        Column::new("requests", 12, 1, |r, _| {
            class_bytes(r, TrafficClass::Request)
        }),
        Column::new("fwd+inv", 12, 1, |r, _| {
            class_bytes(r, TrafficClass::ForwardedOrInvalidation)
        }),
        Column::new("other", 12, 1, |r, _| {
            class_bytes(r, TrafficClass::OtherControl)
        }),
        Column::new("reissue+per", 12, 1, |r, _| {
            class_bytes(r, TrafficClass::ReissueOrPersistent)
        }),
        Column::new("total", 12, 1, |r, _| Real(r.bytes_per_miss())),
    ],
    mean_row: None,
};

/// Miss counts, latency percentiles (ns), per-node completion skew, and the
/// share of misses that needed a reissue or a persistent request.
pub const MISS_LATENCY: Table = Table {
    label: ("configuration", 38),
    columns: &[
        Column::new("misses", 10, 0, |r, _| Count(r.misses.total_misses())),
        Column::new("avg lat (ns)", 14, 1, |r, _| {
            Real(r.misses.average_miss_latency())
        }),
        Column::new("p50", 9, 0, |r, _| Count(r.miss_latency_p50)),
        Column::new("p99", 9, 0, |r, _| Count(r.miss_latency_p99)),
        Column::new("max", 9, 0, |r, _| Count(r.miss_latency_max)),
        Column::new("skew ppm", 10, 0, |r, _| Count(r.completion_skew_ppm)),
        C2C_MISSES,
        Column::new("reissued", 10, 2, |r, _| {
            let [_, once, more, persistent] = r.reissue.percentages();
            Pct(once + more + persistent)
        }),
    ],
    mean_row: None,
};

/// Table 2: the share of misses not reissued, reissued once, reissued more
/// than once, and completed by a persistent request, with the
/// cross-workload average.
pub const REISSUE: Table = Table {
    label: ("workload", 12),
    columns: &[
        Column::new("not reissued", 14, 2, |r, _| Pct(r.table2_row()[0])),
        Column::new("reissued once", 14, 2, |r, _| Pct(r.table2_row()[1])),
        Column::new("reissued > once", 15, 2, |r, _| Pct(r.table2_row()[2])),
        Column::new("persistent", 14, 2, |r, _| Pct(r.table2_row()[3])),
    ],
    mean_row: Some("Average"),
};

/// The fault sweep: per point, what the fault plane injected, what the
/// recovery machinery did about it (reissue timeouts fired,
/// persistent-request activations, worst miss recovery), and the verifier's
/// verdict — "safe and live under fire", row by row.
pub const FAULT: Table = Table {
    label: ("point", 22),
    columns: &[
        Column::new("dropped", 7, 0, |r, _| Count(r.engine.faults.dropped)),
        Column::new("dup", 5, 0, |r, _| Count(r.engine.faults.duplicated)),
        Column::new("delayed", 7, 0, |r, _| Count(r.engine.faults.delayed)),
        Column::new("reorder", 7, 0, |r, _| Count(r.engine.faults.reordered)),
        Column::new("outage", 6, 0, |r, _| Count(r.engine.faults.link_deferred)),
        Column::new("reissues", 8, 0, |r, _| {
            Count(r.engine.faults.reissue_timeouts)
        }),
        Column::new("persistent", 10, 0, |r, _| {
            Count(r.engine.faults.persistent_activations)
        }),
        Column::new("recovery ns", 12, 0, |r, _| {
            Count(r.engine.faults.max_recovery_ns)
        }),
        Column::new("verdict", 9, 0, |r, _| {
            Word(if r.violations.is_empty() {
                "ok"
            } else {
                "VIOLATED"
            })
        }),
    ],
    mean_row: None,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExperimentPoint, RunOptions};
    use tc_types::SystemConfig;
    use tc_workloads::WorkloadProfile;

    /// No traffic class is missing from the traffic table: its class
    /// columns add up to its total column, and the total is every
    /// link-crossing byte the fabric counted.
    #[test]
    fn traffic_columns_cover_every_link_byte() {
        let mut config = SystemConfig::isca03_default().with_nodes(4).with_seed(7);
        config.l2.size_bytes = 256 * 1024;
        let report =
            ExperimentPoint::new("p", config, WorkloadProfile::specjbb()).run(RunOptions {
                ops_per_node: 250,
                max_cycles: 20_000_000,
                ..RunOptions::default()
            });
        let value = |column: &Column| match (column.value)(&report, &report) {
            Real(x) => x,
            other => panic!("{}: {other:?}", column.header),
        };
        let (total, classes) = TRAFFIC.columns.split_last().unwrap();
        assert_eq!(classes.len(), TrafficClass::ALL.len());
        let sum: f64 = classes.iter().map(value).sum();
        assert!((sum - value(total)).abs() < 1e-6);
        let misses = report.misses.total_misses() as f64;
        let bytes = report.traffic.total_link_bytes() as f64;
        assert!(bytes > 0.0 && (value(total) * misses - bytes).abs() < 1e-3);
    }
}
