//! The selector between the paper's two measures — the one mapping from
//! the `em`/`lm` spelling of the CLI, the serve snapshot header and the
//! experiment binaries to a [`NodeCostTable`].

use crate::{EntropyMeasure, LmMeasure, NodeCostTable};
use kanon_core::table::Table;

/// One of the two information-loss measures of the paper's experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measure {
    /// Entropy measure (Eq. 3), spelled `em`.
    Em,
    /// LM measure (Eq. 4), spelled `lm`.
    Lm,
}

impl Measure {
    /// Both measures, in the paper's order.
    pub const ALL: [Measure; 2] = [Measure::Em, Measure::Lm];

    /// Parses the CLI spelling (`em` / `lm`).
    pub fn parse(s: &str) -> Option<Measure> {
        Measure::ALL.into_iter().find(|m| m.name() == s)
    }

    /// The CLI spelling (`em` / `lm`).
    pub fn name(self) -> &'static str {
        match self {
            Measure::Em => "em",
            Measure::Lm => "lm",
        }
    }

    /// The paper's label (`EM` / `LM`).
    pub fn label(self) -> &'static str {
        match self {
            Measure::Em => "EM",
            Measure::Lm => "LM",
        }
    }

    /// Precomputes this measure's node costs over `table`.
    pub fn costs(self, table: &Table) -> NodeCostTable {
        match self {
            Measure::Em => NodeCostTable::compute(table, &EntropyMeasure),
            Measure::Lm => NodeCostTable::compute(table, &LmMeasure),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spellings_round_trip() {
        for m in Measure::ALL {
            assert_eq!(Measure::parse(m.name()), Some(m));
            assert_eq!(m.label(), m.name().to_uppercase());
        }
        assert_eq!(Measure::parse("EM"), None);
        assert_eq!(Measure::parse(""), None);
    }
}
