//! Counter sets declared once.
//!
//! A counter set is a struct of `u64` tallies that several places must
//! agree on: a checkpoint writes them, a status frame carries them, a
//! world-wide report merges and prints them. [`counters!`](macro@crate::counters)
//! declares each counter once — its doc comment and its merge rule — and
//! derives from that one declaration everything that enumerates the
//! counters, so no hand-kept list of field names can fall out of step:
//!
//! * `NAMES`: the counter names, in declaration order;
//! * `to_words` / `from_words`: the counters as one `u64` array in that
//!   order (the layout every byte format built on a set uses);
//! * `merge`: fold another value in, each field by its rule.
//!
//! A set may also carry non-counter fields after the counters (`plus`):
//! they take part in `merge` but not in the words, and `from_words`
//! leaves them at their default.
//!
//! ```
//! pa_mpsim::counters! {
//!     /// Example tallies.
//!     #[derive(Debug, Clone, Default, PartialEq, Eq)]
//!     pub struct Tally {
//!         /// Items seen.
//!         items: sum,
//!         /// Largest batch seen.
//!         peak: max,
//!     }
//!     plus {
//!         /// Items per source.
//!         by_source: Vec<u64> = sum,
//!     }
//! }
//!
//! let mut a = Tally { items: 3, peak: 2, by_source: vec![3] };
//! a.merge(&Tally { items: 4, peak: 1, by_source: vec![1, 3] });
//! assert_eq!(Tally::NAMES, ["items", "peak"]);
//! assert_eq!(a.to_words(), [7, 2]);
//! assert_eq!(a.by_source, [4, 3]);
//! assert_eq!(Tally::from_words([7, 2]).by_source, Vec::<u64>::new());
//! ```

/// Merge rule `sum`: add `b` into `a` (element-wise for per-rank and
/// per-code tallies).
pub fn sum<T: Sum + ?Sized>(a: &mut T, b: &T) {
    a.add(b);
}

/// Merge rule `max`: keep the larger of `a` and `b` (peaks and
/// high-water marks).
pub fn max(a: &mut u64, b: &u64) {
    *a = (*a).max(*b);
}

/// A tally the [`sum`] rule can add into.
pub trait Sum {
    /// Add `other` into `self`.
    fn add(&mut self, other: &Self);
}

impl Sum for u64 {
    fn add(&mut self, other: &Self) {
        *self += other;
    }
}

impl<const N: usize> Sum for [u64; N] {
    fn add(&mut self, other: &Self) {
        for (a, b) in self.iter_mut().zip(other) {
            *a += b;
        }
    }
}

/// Element-wise, growing `self` to `other`'s length first.
impl Sum for Vec<u64> {
    fn add(&mut self, other: &Self) {
        if self.len() < other.len() {
            self.resize(other.len(), 0);
        }
        for (a, b) in self.iter_mut().zip(other) {
            *a += b;
        }
    }
}

/// Declare a counter set: a struct whose `u64` fields are each listed
/// once, as `name: rule`, with `rule` one of the functions of
/// [`counters`](mod@crate::counters) (`sum` or `max`). See the module docs
/// for what it derives. The struct must derive (or implement) `Default`.
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $field:ident: $rule:ident, )+
        }
        $( plus { $( $(#[$xmeta:meta])* $xfield:ident: $xty:ty = $xrule:ident, )* } )?
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* pub $field: u64, )+
            $($( $(#[$xmeta])* pub $xfield: $xty, )*)?
        }

        impl $name {
            /// The counter names, in declaration order — the order of
            /// every byte format and report built on this set.
            pub const NAMES: [&'static str; [$(stringify!($field)),+].len()] =
                [$(stringify!($field)),+];

            /// The counters as words, in [`Self::NAMES`] order.
            pub fn to_words(&self) -> [u64; Self::NAMES.len()] {
                [$(self.$field),+]
            }

            /// The inverse of [`Self::to_words`]; any field that is not a
            /// counter takes its default.
            #[allow(clippy::needless_update)]
            pub fn from_words(words: [u64; Self::NAMES.len()]) -> Self {
                let [$($field),+] = words;
                Self {
                    $($field,)+
                    ..Default::default()
                }
            }

            /// Fold `other` into `self`, every field by its declared rule.
            pub fn merge(&mut self, other: &Self) {
                $( $crate::counters::$rule(&mut self.$field, &other.$field); )+
                $($( $crate::counters::$xrule(&mut self.$xfield, &other.$xfield); )*)?
            }
        }
    };
}
