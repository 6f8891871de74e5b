//! The algorithm entry points: one `try_*` function per algorithm.
//!
//! Every public algorithm is called through its `try_` function here,
//! which returns [`KanonResult`]. Each wraps the shared implementation
//! in `catch_unwind` and converts every failure mode into a value:
//!
//! * domain errors (`CoreError`) pass through as [`KanonError::Core`];
//! * typed `kanon-fault` injections (raised by armed failpoints, possibly
//!   from inside a `kanon-parallel` worker) become
//!   [`KanonError::FaultInjected`];
//! * isolated worker panics become [`KanonError::WorkerPanic`] (lowest
//!   worker index, as guaranteed by `kanon-parallel`);
//! * any other organic panic becomes [`KanonError::Panic`].
//!
//! With the fault and budget machinery disarmed (the default), a run's
//! output is byte-identical at any thread count.
//!
//! ## Graceful degradation
//!
//! The long-running algorithms (agglomerative, ℓ-diversity, forest,
//! Mondrian, shard-and-conquer and the best-k grid) honour the
//! deterministic work budget (`KANON_WORK_BUDGET` /
//! `kanon_obs::with_work_budget`) through one crate-private checkpoint,
//! `Budget`: when the sum of the deterministic work counters reaches the
//! budget, they stop refining and complete cheaply, returning
//! [`Budgeted::BudgetExhausted`]`{ best_so_far, .. }` — a *valid*
//! k-anonymous result, just more generalized than a full run. With no
//! budget armed they always return [`Budgeted::Complete`];
//! [`Budgeted::into_inner`] takes the result either way.

use crate::agglomerative::{agglomerative_impl, AgglomerativeConfig, KAnonOutput};
use crate::distance::ClusterDistance;
use crate::forest::forest_impl;
use crate::global_one_k::GlobalOutput;
use crate::k1::GenOutput;
use crate::ldiversity::{ldiversity_impl, LDiverseConfig};
use crate::pipeline::{global_impl, k1_impl, kk_impl, K1Method, KkConfig};
use kanon_core::error::{KanonError, KanonResult, Result};
use kanon_core::table::{GeneralizedTable, Table};
use kanon_measures::NodeCostTable;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Outcome of a budget-aware run: complete, or a valid partial result
/// produced after the deterministic work budget ran out.
#[derive(Debug, Clone, PartialEq)]
pub enum Budgeted<T> {
    /// The run finished within budget (always the case when no budget
    /// is armed).
    Complete(T),
    /// The work budget tripped mid-run; `best_so_far` is still a valid
    /// k-anonymous output, with more generalization than a full run.
    BudgetExhausted {
        /// The valid partial result.
        best_so_far: T,
        /// The configured budget, in work units (counter sum).
        budget: u64,
        /// Work spent when the budget tripped.
        spent: u64,
    },
}

impl<T> Budgeted<T> {
    /// The result, complete or partial.
    pub fn into_inner(self) -> T {
        match self {
            Budgeted::Complete(v) | Budgeted::BudgetExhausted { best_so_far: v, .. } => v,
        }
    }

    /// A reference to the result, complete or partial.
    pub fn inner(&self) -> &T {
        match self {
            Budgeted::Complete(v) | Budgeted::BudgetExhausted { best_so_far: v, .. } => v,
        }
    }

    /// True when the work budget tripped mid-run.
    pub fn is_exhausted(&self) -> bool {
        matches!(self, Budgeted::BudgetExhausted { .. })
    }

    /// Applies `f` to the result, keeping the verdict.
    pub(crate) fn try_map<U>(self, f: impl FnOnce(T) -> Result<U>) -> Result<Budgeted<U>> {
        let mut verdict = Budget::observe();
        let v = verdict.absorb(self);
        Ok(verdict.finish(f(v)?))
    }
}

/// The deterministic work-budget checkpoint of one budget-aware run. The
/// first recorded `(budget, spent)` pair is the one reported.
pub(crate) struct Budget {
    limit: Option<u64>,
    exhausted: Option<(u64, u64)>,
    _collector: Option<kanon_obs::InstallGuard>,
}

impl Budget {
    /// Arms the budget for a run that checkpoints it itself, installing
    /// a private collector when the caller has none (so that
    /// `spent_work` is meaningful).
    pub(crate) fn arm() -> Self {
        let mut budget = Budget::observe();
        if budget.limit.is_some() && kanon_obs::current().is_none() {
            budget._collector = Some(kanon_obs::Collector::new().install());
        }
        budget
    }

    /// Reads the budget without installing a collector: for a driver
    /// whose nested runs each arm (and account) their own.
    pub(crate) fn observe() -> Self {
        Budget {
            limit: kanon_obs::work_budget(),
            exhausted: None,
            _collector: None,
        }
    }

    /// The checkpoint: true once the work spent has reached the budget.
    pub(crate) fn tripped(&mut self) -> bool {
        if let (Some(limit), None) = (self.limit, self.exhausted) {
            let spent = kanon_obs::spent_work();
            if spent >= limit {
                self.exhausted = Some((limit, spent));
            }
        }
        self.exhausted.is_some()
    }

    /// Takes a nested run's result, recording its exhaustion.
    pub(crate) fn absorb<T>(&mut self, run: Budgeted<T>) -> T {
        match run {
            Budgeted::Complete(v) => v,
            Budgeted::BudgetExhausted {
                best_so_far,
                budget,
                spent,
            } => {
                self.exhausted.get_or_insert((budget, spent));
                best_so_far
            }
        }
    }

    /// Runs `n` independent whole runs, results in index order: serially
    /// when a budget is armed (the trip point reads the shared counter
    /// sum, which concurrent runs would make wall-clock dependent), else
    /// one coarse task each with the threads split evenly inside.
    pub(crate) fn map_runs<T: Send>(&self, n: usize, run: impl Fn(usize) -> T + Sync) -> Vec<T> {
        if self.limit.is_some() {
            (0..n).map(run).collect()
        } else {
            let inner = (kanon_parallel::num_threads() / n.max(1)).max(1);
            kanon_parallel::map_coarse(n, |i| kanon_parallel::with_threads(inner, || run(i)))
        }
    }

    /// Marks `output` with the run's verdict.
    pub(crate) fn finish<T>(self, output: T) -> Budgeted<T> {
        match self.exhausted {
            None => Budgeted::Complete(output),
            Some((budget, spent)) => Budgeted::BudgetExhausted {
                best_so_far: output,
                budget,
                spent,
            },
        }
    }
}

/// Converts a caught panic payload into the matching [`KanonError`].
/// Public so callers owning their own `catch_unwind` boundary (e.g. the
/// CLI) classify payloads identically to the `try_*` entry points.
pub fn error_from_panic(payload: Box<dyn Any + Send>) -> KanonError {
    // An isolated worker panic from kanon-parallel.
    let payload = match payload.downcast::<kanon_parallel::WorkerPanic>() {
        Ok(wp) => {
            return match wp.fault_point {
                Some(point) => KanonError::FaultInjected { point },
                None => KanonError::WorkerPanic {
                    worker: wp.worker,
                    message: wp.message,
                },
            }
        }
        Err(p) => p,
    };
    // A typed fault injection on the serial path.
    let payload = match payload.downcast::<kanon_fault::InjectedFault>() {
        Ok(fault) => return KanonError::FaultInjected { point: fault.point },
        Err(p) => p,
    };
    // A malformed KANON_FAILPOINTS spec (unknown point name or mode):
    // the request environment is wrong, not the run — usage error,
    // exit code 2.
    let payload = match payload.downcast::<kanon_fault::SpecError>() {
        Ok(spec) => return KanonError::Usage(spec.to_string()),
        Err(p) => p,
    };
    let message = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    };
    KanonError::Panic { message }
}

/// Runs `f` with panic isolation, converting every failure to a value.
fn catch<T>(f: impl FnOnce() -> Result<T>) -> KanonResult<T> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(KanonError::Core(e)),
        Err(payload) => Err(error_from_panic(payload)),
    }
}

/// Runs Algorithm 1 (or its Algorithm 2 variant) and returns the
/// clustering, the generalized table and its loss, with budget-aware
/// graceful degradation.
pub fn try_agglomerative_k_anonymize(
    table: &Table,
    costs: &NodeCostTable,
    cfg: &AgglomerativeConfig,
) -> KanonResult<Budgeted<KAnonOutput>> {
    catch(|| agglomerative_impl(table, costs, cfg))
}

/// Agglomerative k-anonymization with a distinct-ℓ-diversity maturity
/// condition: clusters keep merging until they have ≥ k members *and*
/// ≥ ℓ distinct sensitive values. Budget-aware.
///
/// `sensitive[i]` is the sensitive value of row `i` (any dense labelling;
/// e.g. the CMC contraceptive-method class).
pub fn try_l_diverse_k_anonymize(
    table: &Table,
    costs: &NodeCostTable,
    sensitive: &[u32],
    cfg: &LDiverseConfig,
) -> KanonResult<Budgeted<KAnonOutput>> {
    catch(|| ldiversity_impl(table, costs, sensitive, cfg))
}

/// Runs the forest baseline (Aggarwal et al.) and returns the
/// clustering, generalized table and loss, with budget-aware graceful
/// degradation.
pub fn try_forest_k_anonymize(
    table: &Table,
    costs: &NodeCostTable,
    k: usize,
) -> KanonResult<Budgeted<KAnonOutput>> {
    catch(|| forest_impl(table, costs, k))
}

/// Runs the chosen (k,1)-anonymizer: Algorithm 3 or 4.
pub fn try_k1_anonymize(
    table: &Table,
    costs: &NodeCostTable,
    k: usize,
    method: K1Method,
) -> KanonResult<GenOutput> {
    catch(|| k1_impl(table, costs, k, method))
}

/// Runs Algorithm 5: returns a (1,k)-anonymization `g'(D)` that
/// generalizes the input `g(D)` row-wise.
///
/// The input may be any generalization of `D` (commonly the output of
/// Algorithm 3 or 4). The update is sequential in `i`, exactly as in the
/// paper — later records see earlier upgrades, which is what keeps the
/// total extra generalization small.
pub fn try_one_k_anonymize(
    table: &Table,
    gtable: &GeneralizedTable,
    costs: &NodeCostTable,
    k: usize,
) -> KanonResult<GenOutput> {
    catch(|| crate::one_k::one_k_impl(table, gtable, costs, k))
}

/// (k,k)-anonymization: (k,1) stage + Algorithm 5. O(k·n²).
pub fn try_kk_anonymize(
    table: &Table,
    costs: &NodeCostTable,
    cfg: &KkConfig,
) -> KanonResult<GenOutput> {
    catch(|| kk_impl(table, costs, cfg))
}

/// Global (1,k)-anonymization: the (k,k) pipeline `cfg` + Algorithm 6.
pub fn try_global_1k_anonymize(
    table: &Table,
    costs: &NodeCostTable,
    cfg: &KkConfig,
) -> KanonResult<GlobalOutput> {
    catch(|| global_impl(table, costs, cfg))
}

/// Runs the top-down Mondrian-style k-anonymizer, with budget-aware
/// graceful degradation.
pub fn try_mondrian_k_anonymize(
    table: &Table,
    costs: &NodeCostTable,
    k: usize,
) -> KanonResult<Budgeted<KAnonOutput>> {
    catch(|| crate::mondrian::mondrian_impl(table, costs, k))
}

/// Shard-and-conquer k-anonymization (DESIGN.md §5f), with budget-aware
/// graceful degradation.
pub fn try_sharded_k_anonymize(
    table: &Table,
    costs: &NodeCostTable,
    cfg: &crate::shard::ShardConfig,
) -> KanonResult<Budgeted<crate::shard::ShardedOutput>> {
    catch(|| crate::shard::sharded_impl(table, costs, None, cfg))
}

/// Shard-and-conquer k-anonymization with distinct-ℓ-diversity
/// (`sensitive[i]` is row i's sensitive value; `cfg.l` is ℓ), with
/// budget-aware graceful degradation.
pub fn try_sharded_l_diverse_k_anonymize(
    table: &Table,
    costs: &NodeCostTable,
    sensitive: &[u32],
    cfg: &crate::shard::ShardConfig,
) -> KanonResult<Budgeted<crate::shard::ShardedOutput>> {
    catch(|| crate::shard::sharded_impl(table, costs, Some(sensitive), cfg))
}

/// Finds the minimum-loss k-anonymous full-domain recoding (lattice
/// enumeration, the Incognito-model baseline).
pub fn try_fulldomain_k_anonymize(
    table: &Table,
    costs: &NodeCostTable,
    k: usize,
) -> KanonResult<crate::FullDomainOutput> {
    catch(|| crate::fulldomain::fulldomain_impl(table, costs, k))
}

/// Runs MDAV-style microaggregation (a clustering baseline).
pub fn try_mdav_k_anonymize(
    table: &Table,
    costs: &NodeCostTable,
    k: usize,
) -> KanonResult<KAnonOutput> {
    catch(|| crate::mdav::mdav_impl(table, costs, k))
}

/// Runs Samarati's binary search with a suppression budget.
pub fn try_samarati_k_anonymize(
    table: &Table,
    costs: &NodeCostTable,
    k: usize,
    max_sup: usize,
) -> KanonResult<crate::SamaratiOutput> {
    catch(|| crate::samarati::samarati_impl(table, costs, k, max_sup))
}

/// Finds an optimal k-anonymization by exhaustive search — the test
/// oracle; exponential, use on tiny tables only.
pub fn try_optimal_k_anonymize(
    table: &Table,
    costs: &NodeCostTable,
    k: usize,
) -> KanonResult<KAnonOutput> {
    catch(|| crate::optimal::optimal_impl(table, costs, k))
}

/// The "best k-anon" protocol of Table I: runs the agglomerative
/// algorithm with each distance function in `distances` (and, when
/// `include_modified`, also the Algorithm 2 variant) and returns the
/// lowest-loss output together with the winning configuration, with
/// budget-aware graceful degradation across the grid. An empty
/// `distances` list is a [`KanonError::Usage`] error.
pub fn try_best_k_anonymize(
    table: &Table,
    costs: &NodeCostTable,
    k: usize,
    distances: &[ClusterDistance],
    include_modified: bool,
) -> KanonResult<Budgeted<(KAnonOutput, AgglomerativeConfig)>> {
    if distances.is_empty() {
        return Err(KanonError::Usage(
            "best_k_anonymize needs at least one distance function".to_string(),
        ));
    }
    catch(|| crate::pipeline::best_k_impl(table, costs, k, distances, include_modified))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgeted_accessors() {
        let c: Budgeted<u32> = Budgeted::Complete(7);
        assert!(!c.is_exhausted());
        assert_eq!(*c.inner(), 7);
        assert_eq!(c.into_inner(), 7);
        let e: Budgeted<u32> = Budgeted::BudgetExhausted {
            best_so_far: 9,
            budget: 100,
            spent: 123,
        };
        assert!(e.is_exhausted());
        assert_eq!(e.into_inner(), 9);
    }

    #[test]
    fn error_from_panic_recognises_payloads() {
        let e = error_from_panic(Box::new("boom"));
        assert_eq!(
            e,
            KanonError::Panic {
                message: "boom".to_string()
            }
        );
        let e = error_from_panic(Box::new(kanon_fault::InjectedFault {
            point: "p".to_string(),
        }));
        assert_eq!(
            e,
            KanonError::FaultInjected {
                point: "p".to_string()
            }
        );
        let e = error_from_panic(Box::new(kanon_fault::SpecError {
            message: "unknown fail point `x`".to_string(),
        }));
        assert_eq!(e.exit_code(), 2);
        assert!(
            matches!(&e, KanonError::Usage(m) if m.contains("unknown fail point `x`")),
            "{e:?}"
        );
        let e = error_from_panic(Box::new(42u32));
        assert!(matches!(e, KanonError::Panic { .. }));
    }

    /// Ten rows of one numeric attribute, with their LM costs.
    fn ten_rows() -> (Table, NodeCostTable) {
        use kanon_core::record::Record;
        use kanon_core::schema::SchemaBuilder;
        use kanon_measures::LmMeasure;
        let schema = SchemaBuilder::new()
            .numeric_with_intervals("age", 0, 9, &[5])
            .build_shared()
            .unwrap();
        let rows = (0..10).map(|i| Record::from_raw([i])).collect();
        let table = Table::new(schema, rows).unwrap();
        let costs = NodeCostTable::compute(&table, &LmMeasure);
        (table, costs)
    }

    #[test]
    fn empty_distance_list_is_a_usage_error() {
        let (table, costs) = ten_rows();
        let e = try_best_k_anonymize(&table, &costs, 2, &[], false).unwrap_err();
        assert!(matches!(e, KanonError::Usage(_)));
        assert_eq!(e.exit_code(), 2);
    }

    #[test]
    fn invalid_k_is_a_core_error_not_a_panic() {
        let (table, costs) = ten_rows();
        for k in [0usize, 11] {
            let e = try_kk_anonymize(&table, &costs, &KkConfig::new(k)).unwrap_err();
            assert!(matches!(e, KanonError::Core(_)), "k={k}: {e}");
            assert_eq!(e.exit_code(), 1);
        }
    }
}
