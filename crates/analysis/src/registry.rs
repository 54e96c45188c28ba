//! The experiment registry: every reproduced table and figure, by id.
//!
//! Each entry implements the [`Experiment`] trait — id, kind, title,
//! [`Cost`] class, and a fallible [`Experiment::run`] — and the whole
//! registry is a static table, so [`all`] and [`find`] hand out
//! `&'static dyn Experiment` references that can be shared freely across
//! the scheduler's worker threads (see [`crate::engine`]).
//!
//! The experiments that walk the dataset are written as [`ShardFold`]s:
//! [`Experiment::fold`] hands the engine a fresh fold so one shared pass
//! can feed every walker of a run, and their `run` drives that same fold
//! over a pass of its own ([`Context::run_fold`]).

use std::fmt;

use crate::artifact::Artifact;
use crate::context::{Context, ShardView};
use crate::experiments;

/// Whether an experiment reproduces a table or a figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A paper table.
    Table,
    /// A paper figure.
    Figure,
}

impl Kind {
    /// Lowercase label (`table` / `figure`) for CLI output.
    pub fn label(&self) -> &'static str {
        match self {
            Kind::Table => "table",
            Kind::Figure => "figure",
        }
    }
}

/// Rough wall-time class of an experiment, used by the scheduler to start
/// the longest pipelines first so the parallel run is bound by the single
/// slowest experiment rather than an unlucky tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Cost {
    /// Renders catalog data or a single small slice; microseconds.
    Light,
    /// Full-store scans and per-machine statistics; milliseconds.
    Medium,
    /// CONFIRM resampling sweeps; the long pole of `repro all`.
    Heavy,
}

impl Cost {
    /// Lowercase label (`light` / `medium` / `heavy`) for CLI output.
    pub fn label(&self) -> &'static str {
        match self {
            Cost::Light => "light",
            Cost::Medium => "medium",
            Cost::Heavy => "heavy",
        }
    }
}

/// How an experiment failure should be treated by the engine's retry
/// loop (see DESIGN.md §8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErrorClass {
    /// Sporadic — a dropped machine, a chaos injection, a racy resource.
    /// Worth retrying under the run's fault policy.
    Transient,
    /// Deterministic — the context cannot support the pipeline (empty
    /// slice, degenerate statistics) or the code is wrong. Retrying
    /// cannot help; the experiment is quarantined per-id. The default.
    #[default]
    Persistent,
}

/// Why an experiment pipeline could not produce its artifacts.
///
/// Experiments are pure functions of the shared [`Context`]; a
/// [`ErrorClass::Persistent`] failure means the context cannot support
/// the pipeline, a [`ErrorClass::Transient`] one that a retry may
/// succeed. The engine retries transient failures under its fault
/// policy, then reports whatever remains per id and keeps running the
/// rest of the registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentError {
    message: String,
    class: ErrorClass,
}

impl ExperimentError {
    /// Creates a persistent error with a human-readable cause.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            class: ErrorClass::Persistent,
        }
    }

    /// Creates a transient (retryable) error.
    pub(crate) fn transient(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            class: ErrorClass::Transient,
        }
    }

    /// The human-readable cause.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// Whether the engine should retry this failure.
    pub(crate) fn is_transient(&self) -> bool {
        self.class == ErrorClass::Transient
    }
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ExperimentError {}

/// One runnable experiment: metadata plus a fallible pipeline.
///
/// Implementations must be [`Sync`] so the engine can fan a registry
/// slice out across worker threads against one shared immutable context.
///
/// The output must be a pure function of the context and of the code:
/// the artifact cache keys an entry on the context parameters and on the
/// build's [`crate::cache::CODE_FINGERPRINT`], a hash of this crate's and
/// its in-repo dependencies' sources, so editing an experiment needs no
/// version tag of its own. An implementation whose output depends on
/// anything else opts out through [`Experiment::cacheable`].
pub trait Experiment: Sync {
    /// Experiment id (`T1`, `F9`, ...).
    fn id(&self) -> &str;
    /// The kind of artifact it reproduces.
    fn kind(&self) -> Kind;
    /// What paper finding it reproduces.
    fn title(&self) -> &str;
    /// Rough wall-time class, for scheduling.
    fn cost(&self) -> Cost;
    /// Whether artifacts may be served from and stored to the cache.
    /// `false` forces a recompute every run (used by test shims whose
    /// behavior is not a pure function of the context, e.g. injected
    /// failures).
    fn cacheable(&self) -> bool {
        true
    }
    /// Runs the pipeline against the shared campaign context.
    fn run(&self, ctx: &Context) -> Result<Vec<Artifact>, ExperimentError>;
    /// For an experiment that walks the dataset, a fresh fold whose
    /// steps over one full pass and `finish` produce exactly what
    /// [`Experiment::run`] returns. The engine feeds every pending fold
    /// from one shared walk; `None` (the default) runs the experiment
    /// through [`Experiment::run`] alone.
    fn fold(&self) -> Option<Box<dyn ShardFold>> {
        None
    }
}

/// An experiment's pass over the dataset, one machine at a time.
///
/// The driver calls [`ShardFold::step`] once per machine in ascending
/// machine-id order (the order of [`Context::for_each_shard`]), then
/// [`ShardFold::finish`] once. A step error ends the fold: it sees no
/// further shards and the error is its outcome.
///
/// A fold lives for the whole pass, so it may keep state that depends
/// only on a set's size `n` across steps: every set of a campaign has
/// the same `n` (sessions × runs per session), so the F6 and F13 folds
/// keep one `varstats::normality::NormalScores` table and rebuild it only
/// when `n` changes. Such state is owned by the fold, never global, and
/// is dropped with it.
///
/// A fold that needs a set in order — a median, Shapiro–Wilk, a QQ fit —
/// reads `ShardView::sorted` rather than sorting `ShardView::values`
/// itself: each shard sorts a benchmark's column once, for whichever
/// fold asks first, and every fold on any worker shares that copy. Sums
/// and moments stay over `values`, in record order, so their bits do not
/// depend on the sort. The engine runs a fold on a follower worker
/// whenever the walk has more than one, so a step never shares its
/// thread with shard production or decode.
pub trait ShardFold: Send {
    /// Folds one machine's complete sample set into the state.
    ///
    /// # Errors
    ///
    /// The shard cannot support the pipeline.
    fn step(&mut self, shard: ShardView<'_>) -> Result<(), ExperimentError>;
    /// Turns the folded state into the experiment's artifacts.
    ///
    /// # Errors
    ///
    /// The folded data cannot support the pipeline.
    fn finish(self: Box<Self>, ctx: &Context) -> Result<Vec<Artifact>, ExperimentError>;
}

/// How a registry entry computes its artifacts.
#[derive(Clone, Copy)]
enum Pipeline {
    /// One call over the context.
    Run(fn(&Context) -> Result<Vec<Artifact>, ExperimentError>),
    /// A fold over the dataset walk.
    Fold(fn() -> Box<dyn ShardFold>),
}

/// A registry entry: static metadata around a plain function pointer.
struct Entry {
    id: &'static str,
    kind: Kind,
    title: &'static str,
    cost: Cost,
    pipeline: Pipeline,
}

impl Experiment for Entry {
    fn id(&self) -> &str {
        self.id
    }

    fn kind(&self) -> Kind {
        self.kind
    }

    fn title(&self) -> &str {
        self.title
    }

    fn cost(&self) -> Cost {
        self.cost
    }

    fn run(&self, ctx: &Context) -> Result<Vec<Artifact>, ExperimentError> {
        match self.pipeline {
            Pipeline::Run(run) => run(ctx),
            Pipeline::Fold(fold) => ctx.run_fold(fold()),
        }
    }

    fn fold(&self) -> Option<Box<dyn ShardFold>> {
        match self.pipeline {
            Pipeline::Run(_) => None,
            Pipeline::Fold(fold) => Some(fold()),
        }
    }
}

/// All experiments, in DESIGN.md order.
static REGISTRY: [Entry; 24] = [
    Entry {
        id: "T1",
        kind: Kind::Table,
        title: "Hardware catalog: machine types, counts, specs",
        cost: Cost::Light,
        pipeline: Pipeline::Run(experiments::hardware_tables::t1_hardware),
    },
    Entry {
        id: "T2",
        kind: Kind::Table,
        title: "Benchmark suite and parameters",
        cost: Cost::Light,
        pipeline: Pipeline::Run(experiments::hardware_tables::t2_benchmarks),
    },
    Entry {
        id: "F1",
        kind: Kind::Figure,
        title: "Motivating example: skewed repeated disk runs on one machine",
        cost: Cost::Light,
        pipeline: Pipeline::Run(experiments::motivating::f1_motivating),
    },
    Entry {
        id: "F2",
        kind: Kind::Figure,
        title: "Memory bandwidth across one type's machines is multimodal",
        cost: Cost::Light,
        pipeline: Pipeline::Run(experiments::motivating::f2_memory_multimodal),
    },
    Entry {
        id: "F3",
        kind: Kind::Figure,
        title: "CoV by machine type: memory benchmarks",
        cost: Cost::Medium,
        pipeline: Pipeline::Fold(experiments::cov::f3_fold),
    },
    Entry {
        id: "F4",
        kind: Kind::Figure,
        title: "CoV by machine type: disk benchmarks (HDD >> SSD)",
        cost: Cost::Medium,
        pipeline: Pipeline::Fold(experiments::cov::f4_fold),
    },
    Entry {
        id: "F5",
        kind: Kind::Figure,
        title: "CoV by machine type: network benchmarks",
        cost: Cost::Medium,
        pipeline: Pipeline::Fold(experiments::cov::f5_fold),
    },
    Entry {
        id: "F6",
        kind: Kind::Figure,
        title: "Shapiro-Wilk normality census: most sample sets are not normal",
        cost: Cost::Medium,
        pipeline: Pipeline::Fold(experiments::normality::f6_fold),
    },
    Entry {
        id: "F7",
        kind: Kind::Figure,
        title: "Mean fragile vs median robust under contamination",
        cost: Cost::Medium,
        pipeline: Pipeline::Run(experiments::mean_median::f7_mean_vs_median),
    },
    Entry {
        id: "F8",
        kind: Kind::Figure,
        title: "Median-CI half-width vs repetitions (convergence curves)",
        cost: Cost::Medium,
        pipeline: Pipeline::Run(experiments::convergence::f8_ci_convergence),
    },
    Entry {
        id: "F9",
        kind: Kind::Figure,
        title: "CONFIRM: CDF of required repetitions across machines",
        cost: Cost::Heavy,
        pipeline: Pipeline::Run(experiments::confirm_study::f9_confirm_cdf),
    },
    Entry {
        id: "F10",
        kind: Kind::Figure,
        title: "CONFIRM on tail quantiles: p95/p99 cost far more than the median",
        cost: Cost::Heavy,
        pipeline: Pipeline::Run(experiments::confirm_study::f10_confirm_tails),
    },
    Entry {
        id: "T3",
        kind: Kind::Table,
        title: "Parametric (Jain) vs CONFIRM estimates with normality verdicts",
        cost: Cost::Heavy,
        pipeline: Pipeline::Run(experiments::parametric_vs_confirm::t3_parametric_vs_confirm),
    },
    Entry {
        id: "F11",
        kind: Kind::Figure,
        title: "Temporal variability: maintenance changepoints detected",
        cost: Cost::Medium,
        pipeline: Pipeline::Run(experiments::temporal::f11_temporal),
    },
    Entry {
        id: "F12",
        kind: Kind::Figure,
        title: "Inter- vs intra-machine variability decomposition",
        cost: Cost::Medium,
        pipeline: Pipeline::Fold(experiments::inter_intra::f12_fold),
    },
    Entry {
        id: "T4",
        kind: Kind::Table,
        title: "Summary of required repetitions per benchmark and target",
        cost: Cost::Heavy,
        pipeline: Pipeline::Run(experiments::confirm_study::t4_repetition_summary),
    },
    Entry {
        id: "F13",
        kind: Kind::Figure,
        title: "Normal QQ study: the visual non-normality argument, quantified",
        cost: Cost::Medium,
        pipeline: Pipeline::Fold(experiments::qq_study::f13_fold),
    },
    Entry {
        id: "F14",
        kind: Kind::Figure,
        title: "Allocation-policy bias: randomize machine selection",
        cost: Cost::Heavy,
        pipeline: Pipeline::Run(experiments::allocation_bias::f14_allocation_bias),
    },
    Entry {
        id: "F15",
        kind: Kind::Figure,
        title: "Noisy-neighbor interference inflates variability and repetitions",
        cost: Cost::Heavy,
        pipeline: Pipeline::Run(experiments::interference_study::f15_interference),
    },
    Entry {
        id: "T5",
        kind: Kind::Table,
        title: "CONFIRM configuration ablation (criterion, CI method, growth)",
        cost: Cost::Heavy,
        pipeline: Pipeline::Run(experiments::ablation::t5_confirm_ablation),
    },
    Entry {
        id: "T6",
        kind: Kind::Table,
        title: "Campaign dataset overview and outlier health sweep",
        cost: Cost::Medium,
        pipeline: Pipeline::Fold(experiments::dataset_overview::t6_fold),
    },
    Entry {
        id: "F16",
        kind: Kind::Figure,
        title: "CONFIRM answer stability across subsampling seeds",
        cost: Cost::Heavy,
        pipeline: Pipeline::Run(experiments::confirm_stability::f16_confirm_stability),
    },
    Entry {
        id: "T7",
        kind: Kind::Table,
        title: "Variance homogeneity across same-type machines (Brown-Forsythe)",
        cost: Cost::Medium,
        pipeline: Pipeline::Fold(experiments::variance_homogeneity::t7_fold),
    },
    Entry {
        id: "F17",
        kind: Kind::Figure,
        title: "CONFIRM requirement vs CoV: the quadratic scaling law vs theory",
        cost: Cost::Heavy,
        pipeline: Pipeline::Run(experiments::scaling_law::f17_scaling_law),
    },
];

/// All experiments, in DESIGN.md order.
pub fn all() -> Vec<&'static dyn Experiment> {
    REGISTRY.iter().map(|e| e as &dyn Experiment).collect()
}

/// Looks up an experiment by id (case-insensitive).
pub fn find(id: &str) -> Option<&'static dyn Experiment> {
    REGISTRY
        .iter()
        .find(|e| e.id.eq_ignore_ascii_case(id))
        .map(|e| e as &dyn Experiment)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_twenty_four_unique_experiments() {
        let exps = all();
        assert_eq!(exps.len(), 24);
        let mut ids: Vec<&str> = exps.iter().map(|e| e.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 24);
    }

    #[test]
    fn find_is_case_insensitive() {
        assert!(find("f9").is_some());
        assert!(find("T1").is_some());
        assert!(find("F99").is_none());
    }

    #[test]
    fn tables_and_figures_both_present() {
        let exps = all();
        assert_eq!(exps.iter().filter(|e| e.kind() == Kind::Table).count(), 7);
        assert_eq!(exps.iter().filter(|e| e.kind() == Kind::Figure).count(), 17);
    }

    #[test]
    fn every_cost_class_is_represented() {
        let exps = all();
        for cost in [Cost::Light, Cost::Medium, Cost::Heavy] {
            assert!(
                exps.iter().any(|e| e.cost() == cost),
                "no {} experiment registered",
                cost.label()
            );
        }
        // The CONFIRM resampling pipelines are the known long poles.
        assert_eq!(find("F9").unwrap().cost(), Cost::Heavy);
        assert_eq!(find("T1").unwrap().cost(), Cost::Light);
    }

    #[test]
    fn costs_order_light_to_heavy() {
        assert!(Cost::Light < Cost::Medium);
        assert!(Cost::Medium < Cost::Heavy);
    }

    #[test]
    fn experiment_error_displays_its_message() {
        let err = ExperimentError::new("empty slice");
        assert_eq!(err.message(), "empty slice");
        assert_eq!(err.to_string(), "empty slice");
    }
}
