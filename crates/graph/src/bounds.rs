//! Closed-form iteration-gap upper bounds (Table 1 of the paper).
//!
//! All bounds are on `Iter(i) - Iter(j)`: how far worker `i` can run ahead
//! of worker `j`. `path(j -> i)` denotes the directed shortest-path length
//! from `j` to `i` excluding self-loops ([`crate::paths::ShortestPaths`]).
//!
//! Each pair bound is a per-hop bound summed along a shortest path: `b0`
//! ([`BaseSetting::b0`], Table 1's "for j in Nin(i)" column) bounds a
//! worker against each in-neighbor, and `max_ig` against each
//! out-neighbor, so [`token_queues`] is
//! `min(b0 * path(j -> i), max_ig * path(i -> j))`. Hence an iteration
//! vector keeps every ordered pair within its bound exactly when it keeps
//! every edge within its per-hop bound (adjacent workers are themselves
//! a pair), which lets a checker hold Table 1 with per-edge state only.

use std::fmt;

/// An upper bound that may be infinite (backup workers make the raw gap
/// unbounded, §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Bound {
    /// A finite bound of the given number of iterations.
    Finite(u64),
    /// No bound.
    Unbounded,
}

impl Bound {
    /// Multiplies a bound by a scalar; `Unbounded` is absorbing.
    pub fn times(self, k: u64) -> Bound {
        match self {
            Bound::Finite(b) => Bound::Finite(b.saturating_mul(k)),
            Bound::Unbounded => Bound::Unbounded,
        }
    }

    /// Minimum of two bounds.
    pub fn min(self, other: Bound) -> Bound {
        match (self, other) {
            (Bound::Finite(a), Bound::Finite(b)) => Bound::Finite(a.min(b)),
            (Bound::Finite(a), Bound::Unbounded) | (Bound::Unbounded, Bound::Finite(a)) => {
                Bound::Finite(a)
            }
            (Bound::Unbounded, Bound::Unbounded) => Bound::Unbounded,
        }
    }

    /// Whether an observed gap satisfies the bound.
    pub fn admits(self, observed: i64) -> bool {
        match self {
            Bound::Finite(b) => observed <= b as i64,
            Bound::Unbounded => true,
        }
    }

    /// The finite value, if any.
    pub fn finite(self) -> Option<u64> {
        match self {
            Bound::Finite(b) => Some(b),
            Bound::Unbounded => None,
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::Finite(b) => write!(f, "{b}"),
            Bound::Unbounded => write!(f, "inf"),
        }
    }
}

impl From<u64> for Bound {
    fn from(v: u64) -> Self {
        Bound::Finite(v)
    }
}

/// Converts a shortest-path distance (`None` = unreachable) to a [`Bound`]
/// factor: an unreachable path imposes no constraint.
fn path_bound(dist: Option<usize>) -> Bound {
    match dist {
        Some(d) => Bound::Finite(d as u64),
        None => Bound::Unbounded,
    }
}

/// Table 1, row "Standard decentralized": `Iter(i) - Iter(j) <=
/// length(Path_{j->i})` (Theorem 1).
pub fn standard(path_j_to_i: Option<usize>) -> Bound {
    path_bound(path_j_to_i)
}

/// Table 1, row "Bounded staleness": `(s+1) * length(Path_{j->i})`.
pub fn staleness(s: u64, path_j_to_i: Option<usize>) -> Bound {
    path_bound(path_j_to_i).times(s + 1)
}

/// Table 1, row "Backup worker": unbounded.
pub fn backup() -> Bound {
    Bound::Unbounded
}

/// Table 1, row "Hybrid" (backup + staleness): unbounded.
pub fn hybrid() -> Bound {
    Bound::Unbounded
}

/// Table 1, row "Using NOTIFY-ACK":
/// `min(length(Path_{j->i}), 2 * length(Path_{i->j}))` (§3.3).
pub fn notify_ack(path_j_to_i: Option<usize>, path_i_to_j: Option<usize>) -> Bound {
    path_bound(path_j_to_i).min(path_bound(path_i_to_j).times(2))
}

/// Table 1, row "Using token queues":
/// `min(b0 * length(Path_{j->i}), max_ig * length(Path_{i->j}))`, where
/// `b0` is the forward per-hop bound of the base setting (1 for standard,
/// `s+1` for bounded staleness, unbounded for backup/hybrid).
pub fn token_queues(
    b0: Bound,
    max_ig: u64,
    path_j_to_i: Option<usize>,
    path_i_to_j: Option<usize>,
) -> Bound {
    let forward = match b0 {
        Bound::Finite(b) => path_bound(path_j_to_i).times(b),
        Bound::Unbounded => Bound::Unbounded,
    };
    forward.min(path_bound(path_i_to_j).times(max_ig))
}

/// The forward per-hop bound `b0` of each base protocol setting, i.e. the
/// Table 1 column "for j in Nin(i)".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaseSetting {
    /// Standard decentralized training: adjacent gap at most 1.
    Standard,
    /// Bounded staleness with bound `s`: adjacent gap at most `s + 1`.
    BoundedStaleness(u64),
    /// Backup workers: no inherent bound.
    BackupWorkers,
    /// Backup workers combined with staleness: no inherent bound.
    Hybrid,
}

impl BaseSetting {
    /// The per-hop forward bound `b0`.
    pub fn b0(self) -> Bound {
        match self {
            BaseSetting::Standard => Bound::Finite(1),
            BaseSetting::BoundedStaleness(s) => Bound::Finite(s + 1),
            BaseSetting::BackupWorkers | BaseSetting::Hybrid => Bound::Unbounded,
        }
    }

    /// The Table 1 bound for an arbitrary pair without token queues.
    pub fn pair_bound(self, path_j_to_i: Option<usize>) -> Bound {
        match self {
            BaseSetting::Standard => standard(path_j_to_i),
            BaseSetting::BoundedStaleness(s) => staleness(s, path_j_to_i),
            BaseSetting::BackupWorkers | BaseSetting::Hybrid => Bound::Unbounded,
        }
    }

    /// The Table 1 bound for an arbitrary pair when token queues with
    /// `max_ig` are layered on top of this setting.
    pub fn pair_bound_with_tokens(
        self,
        max_ig: u64,
        path_j_to_i: Option<usize>,
        path_i_to_j: Option<usize>,
    ) -> Bound {
        token_queues(self.b0(), max_ig, path_j_to_i, path_i_to_j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::ShortestPaths;
    use crate::topology::Topology;

    #[test]
    fn bound_algebra() {
        assert_eq!(Bound::Finite(3).times(2), Bound::Finite(6));
        assert_eq!(Bound::Unbounded.times(2), Bound::Unbounded);
        assert_eq!(Bound::Finite(3).min(Bound::Finite(5)), Bound::Finite(3));
        assert_eq!(Bound::Unbounded.min(Bound::Finite(5)), Bound::Finite(5));
        assert_eq!(Bound::Unbounded.min(Bound::Unbounded), Bound::Unbounded);
        assert!(Bound::Finite(2).admits(2));
        assert!(!Bound::Finite(2).admits(3));
        assert!(Bound::Unbounded.admits(i64::MAX));
        assert_eq!(Bound::Finite(4).finite(), Some(4));
        assert_eq!(Bound::Unbounded.finite(), None);
        assert_eq!(format!("{}", Bound::Finite(7)), "7");
        assert_eq!(format!("{}", Bound::Unbounded), "inf");
    }

    #[test]
    fn standard_is_theorem_1() {
        assert_eq!(standard(Some(3)), Bound::Finite(3));
        assert_eq!(standard(None), Bound::Unbounded);
    }

    #[test]
    fn staleness_scales_path() {
        assert_eq!(staleness(5, Some(2)), Bound::Finite(12));
    }

    #[test]
    fn notify_ack_adjacent_is_table_1() {
        // Adjacent workers: path(j->i) = 1, path(i->j) = 1 on a symmetric
        // graph => forward bound 1, backward bound 2, matching §3.3.
        assert_eq!(notify_ack(Some(1), Some(1)), Bound::Finite(1));
        assert_eq!(notify_ack(Some(4), Some(1)), Bound::Finite(2));
    }

    #[test]
    fn token_queues_bound_backup_setting() {
        // Backup workers alone: unbounded; with tokens: max_ig * path(i->j).
        let b = BaseSetting::BackupWorkers;
        assert_eq!(b.pair_bound(Some(1)), Bound::Unbounded);
        assert_eq!(
            b.pair_bound_with_tokens(5, Some(1), Some(2)),
            Bound::Finite(10)
        );
    }

    #[test]
    fn token_queues_adjacent_standard() {
        // Adjacent pair, standard setting with tokens: min(1 * 1, max_ig * 1).
        assert_eq!(
            BaseSetting::Standard.pair_bound_with_tokens(5, Some(1), Some(1)),
            Bound::Finite(1)
        );
        // The reverse direction ("for i in Nin(j)"): path(j->i) may be long.
        assert_eq!(
            BaseSetting::Standard.pair_bound_with_tokens(5, Some(9), Some(1)),
            Bound::Finite(5)
        );
    }

    #[test]
    fn figure_5_example() {
        // Fig. 5(b): a 5-node ring; path(A=0 -> B=1) going the long way is 4
        // hops in the directed sense used there. On our bidirectional
        // 5-ring, path(0->1) = 1 and path(1->0) = 1, so Theorem 1 gives
        // gap(B ahead of A) <= path(0->1)... exercise the machinery on the
        // directed cycle instead, which matches the figure's chain.
        let t = Topology::from_edges(5, &[(0, 4), (4, 3), (3, 2), (2, 1), (1, 0)]);
        let sp = ShortestPaths::new(&t);
        // B=1 can be 4 ahead of A=0: path(0 -> 1) = 4 hops (0->4->3->2->1).
        assert_eq!(standard(sp.dist(0, 1)), Bound::Finite(4));
        // With max_ig = 3 the gap shrinks to min(4, 3*1) = 3 (Fig. 5 fix).
        assert_eq!(
            BaseSetting::Standard.pair_bound_with_tokens(3, sp.dist(0, 1), sp.dist(1, 0)),
            Bound::Finite(3)
        );
    }

    #[test]
    fn hybrid_unbounded_without_tokens() {
        assert_eq!(hybrid(), Bound::Unbounded);
        assert_eq!(backup(), Bound::Unbounded);
    }
}
