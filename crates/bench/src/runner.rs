//! The three competitor protocols of Table I.

use kanon_algos::{
    try_best_k_anonymize, try_forest_k_anonymize, try_kk_anonymize, ClusterDistance, K1Method,
    KkConfig,
};
use kanon_core::table::Table;
use kanon_measures::NodeCostTable;

/// The k values of Table I and Figures 2–3.
pub const PAPER_KS: [usize; 4] = [5, 10, 15, 20];

/// One competitor's result for a (dataset, measure, k) cell.
#[derive(Debug, Clone)]
pub struct CompetitorResult {
    /// Information loss achieved.
    pub loss: f64,
    /// Which configuration won (for the "best X" protocols).
    pub winner: String,
}

/// "best k-anon": the agglomerative algorithm over all four distance
/// functions, basic and modified variants (8 runs), keeping the cheapest —
/// the protocol behind the first row of each Table I block.
pub fn run_best_k_anon(table: &Table, costs: &NodeCostTable, k: usize) -> CompetitorResult {
    let (out, cfg) =
        try_best_k_anonymize(table, costs, k, &ClusterDistance::paper_variants(), true)
            .expect("valid k for dataset")
            .into_inner();
    CompetitorResult {
        loss: out.loss,
        winner: format!(
            "{}{}",
            cfg.distance.name(),
            if cfg.modified { "+mod" } else { "" }
        ),
    }
}

/// The forest baseline (second row of each Table I block).
pub fn run_forest(table: &Table, costs: &NodeCostTable, k: usize) -> CompetitorResult {
    let out = try_forest_k_anonymize(table, costs, k)
        .expect("valid k for dataset")
        .into_inner();
    CompetitorResult {
        loss: out.loss,
        winner: "forest".to_string(),
    }
}

/// "(k,k)-anon": the better of the two couplings Alg.3+5 and Alg.4+5
/// (third row of each Table I block).
pub fn run_kk_best(table: &Table, costs: &NodeCostTable, k: usize) -> CompetitorResult {
    // Two independent whole runs — a coarse grid: run both couplings
    // concurrently, each with half the workers for its row-parallel inner
    // loops, then pick the winner in method order (strict `<`, matching
    // the serial sweep's tie-break).
    let methods = [K1Method::NearestNeighbors, K1Method::Expansion];
    let inner = (kanon_parallel::num_threads() / methods.len()).max(1);
    let outputs = kanon_parallel::map_coarse(methods.len(), |i| {
        kanon_parallel::with_threads(inner, || {
            try_kk_anonymize(
                table,
                costs,
                &KkConfig {
                    k,
                    method: methods[i],
                },
            )
            .expect("valid k")
        })
    });
    let mut best: Option<CompetitorResult> = None;
    for (out, method) in outputs.into_iter().zip(methods) {
        let better = best.as_ref().is_none_or(|b| out.loss < b.loss);
        if better {
            best = Some(CompetitorResult {
                loss: out.loss,
                winner: method.name().to_string(),
            });
        }
    }
    best.expect("two methods ran")
}

#[cfg(test)]
mod tests {
    use super::*;
    use kanon_data::art;
    use kanon_measures::Measure;

    #[test]
    fn competitor_ordering_holds_on_art() {
        // The paper's two headline orderings on a small ART instance:
        // best-k-anon ≤ forest and kk ≤ best-k-anon.
        let table = art::generate(150, 1);
        for measure in Measure::ALL {
            let costs = measure.costs(&table);
            let k = 5;
            let best = run_best_k_anon(&table, &costs, k);
            let forest = run_forest(&table, &costs, k);
            let kk = run_kk_best(&table, &costs, k);
            assert!(
                best.loss <= forest.loss + 1e-9,
                "{}: best {} > forest {}",
                measure.label(),
                best.loss,
                forest.loss
            );
            assert!(
                kk.loss <= best.loss + 1e-9,
                "{}: kk {} > best {}",
                measure.label(),
                kk.loss,
                best.loss
            );
        }
    }

    #[test]
    fn losses_grow_with_k() {
        let table = art::generate(120, 2);
        let costs = Measure::Lm.costs(&table);
        let l5 = run_best_k_anon(&table, &costs, 5).loss;
        let l10 = run_best_k_anon(&table, &costs, 10).loss;
        assert!(l5 <= l10 + 1e-9, "loss should grow with k: {l5} vs {l10}");
    }

    #[test]
    fn winners_are_reported() {
        let table = art::generate(80, 3);
        let costs = Measure::Em.costs(&table);
        let best = run_best_k_anon(&table, &costs, 5);
        assert!(["D1", "D2", "D3", "D4"]
            .iter()
            .any(|d| best.winner.starts_with(d)));
        let kk = run_kk_best(&table, &costs, 5);
        assert!(kk.winner == "Alg3+5" || kk.winner == "Alg4+5");
    }
}
