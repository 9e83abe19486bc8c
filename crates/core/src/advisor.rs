//! Configuration advisor: the paper's §6.1 takeaways, encoded as a
//! decision procedure over quantified tradeoffs rather than prose.
//!
//! Given an operator's constraints — expected correlated-burst frequency,
//! durability target, whether the enclosures are black-box RBODs, and
//! performance sensitivity — recommend an EC family, MLEC scheme, and
//! repair method, with the measured justification attached.

use mlec_analysis::splitting::mlec_durability_nines;
use mlec_sim::config::MlecDeployment;
use mlec_sim::repair::{plan_catastrophic_repair, RepairMethod};
use mlec_topology::MlecScheme;

/// How often the site observes correlated failure bursts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BurstExposure {
    /// Bursts are rare (well-conditioned power/cooling, small blast radius).
    Rare,
    /// Bursts happen regularly (shared power domains, batch-correlated
    /// drives).
    Frequent,
}

/// Operational capability of the storage team.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpsModel {
    /// Off-the-shelf RBODs; the network level cannot see inside enclosures.
    BlackBoxRbod,
    /// Full cross-level transparency: enclosures report failed chunks.
    Transparent,
}

/// What the deployment optimizes for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Maximize durability (paper takeaway 6: HPC datasets where any lost
    /// chunk poisons petabytes).
    Durability,
    /// Favor throughput/simplicity at acceptable durability (takeaway 5).
    Performance,
}

/// The advisor's inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteProfile {
    /// Burst regime at the site.
    pub bursts: BurstExposure,
    /// Cross-level transparency available?
    pub ops: OpsModel,
    /// Optimization target.
    pub priority: Priority,
    /// Minimum acceptable one-year durability in nines.
    pub min_nines: f64,
}

/// A recommendation with its quantified rationale.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// Recommended placement scheme.
    pub scheme: MlecScheme,
    /// Recommended repair method.
    pub method: RepairMethod,
    /// Predicted one-year durability, nines.
    pub durability_nines: f64,
    /// Predicted cross-rack traffic per catastrophic-pool repair, TB.
    pub repair_traffic_tb: f64,
    /// Human-readable rationale (one line per §6.1 rule applied).
    pub rationale: Vec<String>,
}

/// Recommend a scheme and repair method for the paper's reference geometry.
///
/// Returns `None` when no configuration meets `min_nines` under the given
/// constraints (the caller should then revisit code parameters rather than
/// placement).
pub fn recommend(profile: &SiteProfile) -> Option<Recommendation> {
    let mut rationale = Vec::new();

    // §6.1 rules 1-2: the repair method follows the ops model.
    let method = match profile.ops {
        OpsModel::BlackBoxRbod => {
            rationale.push(
                "black-box RBODs cannot report failed chunks: R_ALL is the only \
                 implementable repair (takeaway 1)"
                    .to_string(),
            );
            RepairMethod::All
        }
        OpsModel::Transparent => {
            rationale.push(
                "cross-level transparency unlocks the optimized repairs: use R_MIN \
                 (takeaway 2)"
                    .to_string(),
            );
            RepairMethod::Min
        }
    };

    // §6.1 rules 3-4: the scheme follows the burst regime.
    let candidates: Vec<MlecScheme> = match profile.bursts {
        BurstExposure::Frequent => {
            rationale.push(
                "frequent correlated bursts: C/C gives the best burst tolerance \
                 (takeaway 3, Fig 5)"
                    .to_string(),
            );
            vec![MlecScheme::CC]
        }
        BurstExposure::Rare => {
            rationale.push(
                "bursts are rare: C/D or D/D maximize durability under independent \
                 failures (takeaway 4, Fig 10)"
                    .to_string(),
            );
            vec![MlecScheme::CD, MlecScheme::DD]
        }
    };

    // Rank candidates by durability; performance priority prefers the
    // scheme with faster single-disk repair when within a nine.
    let mut best: Option<Recommendation> = None;
    for scheme in candidates {
        let dep = MlecDeployment::paper_default(scheme);
        let nines = mlec_durability_nines(&dep, method);
        let plan = plan_catastrophic_repair(&dep, method);
        let rec = Recommendation {
            scheme,
            method,
            durability_nines: nines,
            repair_traffic_tb: plan.cross_rack_traffic_tb,
            rationale: rationale.clone(),
        };
        best = match best {
            None => Some(rec),
            Some(prev) => {
                let better = match profile.priority {
                    Priority::Durability => nines > prev.durability_nines,
                    Priority::Performance => {
                        plan.cross_rack_traffic_tb < prev.repair_traffic_tb
                            && nines > prev.durability_nines - 1.0
                    }
                };
                Some(if better { rec } else { prev })
            }
        };
    }
    let mut rec = best?;
    if rec.durability_nines < profile.min_nines {
        return None;
    }
    if profile.priority == Priority::Performance {
        rec.rationale.push(
            "performance priority: ties broken toward less repair traffic (takeaway 5)".to_string(),
        );
    } else {
        rec.rationale
            .push("durability priority: ties broken toward more nines (takeaway 6)".to_string());
    }
    Some(rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursty_site_gets_cc() {
        let rec = recommend(&SiteProfile {
            bursts: BurstExposure::Frequent,
            ops: OpsModel::Transparent,
            priority: Priority::Durability,
            min_nines: 10.0,
        })
        .unwrap();
        assert_eq!(rec.scheme, MlecScheme::CC);
        assert_eq!(rec.method, RepairMethod::Min);
    }

    #[test]
    fn quiet_site_gets_local_declustered() {
        let rec = recommend(&SiteProfile {
            bursts: BurstExposure::Rare,
            ops: OpsModel::Transparent,
            priority: Priority::Durability,
            min_nines: 10.0,
        })
        .unwrap();
        assert!(matches!(rec.scheme, MlecScheme { .. }));
        assert_eq!(rec.scheme.local, mlec_topology::Placement::Declustered);
    }

    #[test]
    fn black_box_rbods_forced_to_rall() {
        let rec = recommend(&SiteProfile {
            bursts: BurstExposure::Rare,
            ops: OpsModel::BlackBoxRbod,
            priority: Priority::Durability,
            min_nines: 5.0,
        })
        .unwrap();
        assert_eq!(rec.method, RepairMethod::All);
        assert!(rec.rationale.iter().any(|r| r.contains("R_ALL")));
    }

    #[test]
    fn unreachable_target_returns_none() {
        let rec = recommend(&SiteProfile {
            bursts: BurstExposure::Frequent,
            ops: OpsModel::BlackBoxRbod,
            priority: Priority::Durability,
            min_nines: 70.0,
        });
        assert!(rec.is_none());
    }

    #[test]
    fn transparency_buys_nines() {
        let base = SiteProfile {
            bursts: BurstExposure::Rare,
            ops: OpsModel::BlackBoxRbod,
            priority: Priority::Durability,
            min_nines: 5.0,
        };
        let black = recommend(&base).unwrap();
        let clear = recommend(&SiteProfile {
            ops: OpsModel::Transparent,
            ..base
        })
        .unwrap();
        assert!(clear.durability_nines > black.durability_nines + 1.0);
    }
}
