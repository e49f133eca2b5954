//! One declaration per counter set.
//!
//! [`counters!`](crate::counters!) takes a set's name, its snapshot's
//! name and its fields with their docs, and derives everything else from
//! that one list, so a counter added to the list joins every view of the
//! set or none. Counters are diagnostics, not synchronisation: every load
//! and add is `Relaxed`. A gauge (a value that goes down as well as up,
//! such as a live-connection count) is not a counter; it stays
//! hand-written beside the set it is reported with.

/// Declares a counter set once and generates from that one list:
///
/// - the live struct, one `pub AtomicU64` per field (`Debug + Default`);
/// - the snapshot struct, one `pub u64` per field (`Copy + Default + Eq`);
/// - `Live::snapshot()` and `Live::add(&counter, n)`;
/// - `Snapshot::since()`, `merge()`, `counters()`, `to_value()` (a
///   [`Value`](crate::json::Value) object keyed by field name) and
///   `impl Add for Snapshot`.
///
/// A field written `name[N]` is an array of `N` counters (a histogram's
/// buckets), handled bucket by bucket and left out of `counters()`,
/// which lists the scalars.
///
/// ```
/// ldbpp_common::counters! {
///     /// Live counters.
///     pub struct Hits;
///     /// A copy of [`Hits`].
///     pub struct HitsSnapshot;
///     /// Requests answered.
///     served,
///     /// Answers by size class.
///     sizes[2],
/// }
///
/// let live = Hits::default();
/// Hits::add(&live.served, 3);
/// Hits::add(&live.sizes[1], 1);
/// let snap = live.snapshot();
/// assert_eq!(snap.since(&HitsSnapshot::default()), snap);
/// assert_eq!((snap + snap).to_value().to_json(), r#"{"served":6,"sizes":[0,2]}"#);
/// assert_eq!(snap.counters().collect::<Vec<_>>(), [("served", 3)]);
/// ```
#[macro_export]
macro_rules! counters {
    (@live) => { ::std::sync::atomic::AtomicU64 };
    (@live $len:literal) => { [::std::sync::atomic::AtomicU64; $len] };
    (@frozen) => { u64 };
    (@frozen $len:literal) => { [u64; $len] };
    (@load $v:expr, $len:literal) => {
        ::std::array::from_fn(|i| $crate::counters!(@load $v[i]))
    };
    (@load $v:expr) => { $v.load(::std::sync::atomic::Ordering::Relaxed) };
    (@op $a:expr, $op:tt $b:expr, $len:literal) => {
        ::std::array::from_fn(|i| $a[i] $op $b[i])
    };
    (@op $a:expr, $op:tt $b:expr) => { $a $op $b };
    (@value $v:expr, $len:literal) => {
        $crate::json::Value::Array($v.iter().map(|&n| $crate::counters!(@value n)).collect())
    };
    (@value $v:expr) => { $crate::json::Value::Int($v as i64) };
    (@scalar $v:expr, $len:literal) => { ::std::option::Option::None };
    (@scalar $v:expr) => { ::std::option::Option::Some($v) };
    (
        $(#[doc = $live_doc:literal])*
        $live_vis:vis struct $live:ident;
        $(#[doc = $snap_doc:literal])*
        $snap_vis:vis struct $snap:ident;
        $($(#[doc = $doc:literal])* $name:ident $([$len:literal])?,)+
    ) => {
        $(#[doc = $live_doc])*
        #[derive(Debug, Default)]
        $live_vis struct $live {
            $($(#[doc = $doc])* pub $name: $crate::counters!(@live $($len)?),)+
        }

        $(#[doc = $snap_doc])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $snap_vis struct $snap {
            $($(#[doc = $doc])* pub $name: $crate::counters!(@frozen $($len)?),)+
        }

        impl $live {
            /// Capture the current counter values.
            pub fn snapshot(&self) -> $snap {
                $snap { $($name: $crate::counters!(@load self.$name $(, $len)?),)+ }
            }

            /// Bump `counter` by `n` (`Relaxed`; counters are advisory).
            pub fn add(counter: &::std::sync::atomic::AtomicU64, n: u64) {
                counter.fetch_add(n, ::std::sync::atomic::Ordering::Relaxed);
            }
        }

        impl $snap {
            /// Counter-wise difference (`self - earlier`).
            pub fn since(&self, earlier: &$snap) -> $snap {
                $snap { $($name: $crate::counters!(@op self.$name, - earlier.$name $(, $len)?),)+ }
            }

            /// Counter-wise sum of any number of snapshots; an empty
            /// iterator yields the zero snapshot.
            pub fn merge<I: IntoIterator<Item = $snap>>(snapshots: I) -> $snap {
                snapshots.into_iter().fold($snap::default(), |acc, s| acc + s)
            }

            /// Every scalar counter as `(field name, value)`, in
            /// declaration order (array fields are left out).
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($name), $crate::counters!(@scalar self.$name $(, $len)?)),)+]
                    .into_iter()
                    .filter_map(|(name, n)| Some((name, n?)))
            }

            /// Every field as one JSON object keyed by field name.
            pub fn to_value(&self) -> $crate::json::Value {
                $crate::json::Value::object([
                    $((stringify!($name), $crate::counters!(@value self.$name $(, $len)?)),)+
                ])
            }
        }

        impl ::std::ops::Add for $snap {
            type Output = $snap;

            /// Counter-wise sum.
            fn add(self, b: $snap) -> $snap {
                $snap { $($name: $crate::counters!(@op self.$name, + b.$name $(, $len)?),)+ }
            }
        }
    };
}
