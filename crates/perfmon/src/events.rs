//! The 58 hardware events of the paper's Fig. 2 heatmap.

use std::cmp::Ordering;

/// Number of simulated events.
pub const NUM_EVENTS: usize = 58;

/// Event names exactly as they appear on the Fig. 2 y-axis (perf syntax).
pub const EVENT_NAMES: [&str; NUM_EVENTS] = [
    "L1-dcache-load-misses",
    "L1-dcache-loads",
    "L1-dcache-stores",
    "L1-icache-load-misses",
    "LLC-load-misses",
    "LLC-loads",
    "LLC-store-misses",
    "LLC-stores",
    "branch-load-misses",
    "branch-loads",
    "branch-misses",
    "branches",
    "bus-cycles",
    "cache-misses",
    "cache-references",
    "cpu-cycles",
    "cpu/branch-instructions/",
    "cpu/branch-misses/",
    "cpu/bus-cycles/",
    "cpu/cache-misses/",
    "cpu/cache-references/",
    "cpu/cpu-cycles/",
    "cpu/cycles-ct/",
    "cpu/cycles-t/",
    "cpu/el-abort/",
    "cpu/el-capacity/",
    "cpu/el-commit/",
    "cpu/el-conflict/",
    "cpu/el-start/",
    "cpu/instructions/",
    "cpu/mem-loads/",
    "cpu/mem-stores/",
    "cpu/topdown-fetch-bubbles/",
    "cpu/topdown-recovery-bubbles/",
    "cpu/topdown-slots-issued/",
    "cpu/topdown-slots-retired/",
    "cpu/topdown-total-slots/",
    "cpu/tx-abort/",
    "cpu/tx-capacity/",
    "cpu/tx-commit/",
    "cpu/tx-conflict/",
    "cpu/tx-start/",
    "dTLB-load-misses",
    "dTLB-loads",
    "dTLB-store-misses",
    "dTLB-stores",
    "iTLB-load-misses",
    "iTLB-loads",
    "instructions",
    "msr/aperf/",
    "msr/mperf/",
    "msr/pperf/",
    "msr/smi/",
    "msr/tsc/",
    "node-load-misses",
    "node-loads",
    "node-store-misses",
    "node-stores",
];

/// `a` ordered against `b` byte by byte — `str`'s own ordering, usable in
/// constants.
const fn cmp(a: &str, b: &str) -> Ordering {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut i = 0;
    while i < a.len() && i < b.len() {
        if a[i] != b[i] {
            return if a[i] < b[i] { Ordering::Less } else { Ordering::Greater };
        }
        i += 1;
    }
    if a.len() < b.len() {
        Ordering::Less
    } else if a.len() > b.len() {
        Ordering::Greater
    } else {
        Ordering::Equal
    }
}

// `event_index` bisects `EVENT_NAMES` itself, so the Fig. 2 order must also
// be strictly ascending byte order (which makes the names unique, too).
const _: () = {
    let mut i = 1;
    while i < NUM_EVENTS {
        assert!(matches!(cmp(EVENT_NAMES[i - 1], EVENT_NAMES[i]), Ordering::Less));
        i += 1;
    }
};

/// Index of an event name, if it is one of the 58.
pub const fn event_index(name: &str) -> Option<usize> {
    let (mut lo, mut hi) = (0, NUM_EVENTS);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match cmp(EVENT_NAMES[mid], name) {
            Ordering::Less => lo = mid + 1,
            Ordering::Greater => hi = mid,
            Ordering::Equal => return Some(mid),
        }
    }
    None
}

/// [`event_index`] of a name the model itself spells out: evaluated in a
/// constant, a name that is not one of the 58 fails the build.
pub(crate) const fn position(name: &str) -> usize {
    match event_index(name) {
        Some(i) => i,
        None => panic!("not one of the 58 events"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_exactly_58_unique_events() {
        let mut names: Vec<&str> = EVENT_NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NUM_EVENTS);
    }

    #[test]
    fn lookup_round_trips() {
        for (i, name) in EVENT_NAMES.iter().enumerate() {
            assert_eq!(event_index(name), Some(i));
        }
        assert_eq!(event_index("not-an-event"), None);
    }

    /// The feature-vector layout the ground truth persists: position by
    /// position, so neither a reordering of `EVENT_NAMES` nor a lookup that
    /// lands one off can pass.
    #[test]
    fn all_58_names_keep_their_positions() {
        let pinned = [
            (0, "L1-dcache-load-misses"),
            (1, "L1-dcache-loads"),
            (2, "L1-dcache-stores"),
            (3, "L1-icache-load-misses"),
            (4, "LLC-load-misses"),
            (5, "LLC-loads"),
            (6, "LLC-store-misses"),
            (7, "LLC-stores"),
            (8, "branch-load-misses"),
            (9, "branch-loads"),
            (10, "branch-misses"),
            (11, "branches"),
            (12, "bus-cycles"),
            (13, "cache-misses"),
            (14, "cache-references"),
            (15, "cpu-cycles"),
            (16, "cpu/branch-instructions/"),
            (17, "cpu/branch-misses/"),
            (18, "cpu/bus-cycles/"),
            (19, "cpu/cache-misses/"),
            (20, "cpu/cache-references/"),
            (21, "cpu/cpu-cycles/"),
            (22, "cpu/cycles-ct/"),
            (23, "cpu/cycles-t/"),
            (24, "cpu/el-abort/"),
            (25, "cpu/el-capacity/"),
            (26, "cpu/el-commit/"),
            (27, "cpu/el-conflict/"),
            (28, "cpu/el-start/"),
            (29, "cpu/instructions/"),
            (30, "cpu/mem-loads/"),
            (31, "cpu/mem-stores/"),
            (32, "cpu/topdown-fetch-bubbles/"),
            (33, "cpu/topdown-recovery-bubbles/"),
            (34, "cpu/topdown-slots-issued/"),
            (35, "cpu/topdown-slots-retired/"),
            (36, "cpu/topdown-total-slots/"),
            (37, "cpu/tx-abort/"),
            (38, "cpu/tx-capacity/"),
            (39, "cpu/tx-commit/"),
            (40, "cpu/tx-conflict/"),
            (41, "cpu/tx-start/"),
            (42, "dTLB-load-misses"),
            (43, "dTLB-loads"),
            (44, "dTLB-store-misses"),
            (45, "dTLB-stores"),
            (46, "iTLB-load-misses"),
            (47, "iTLB-loads"),
            (48, "instructions"),
            (49, "msr/aperf/"),
            (50, "msr/mperf/"),
            (51, "msr/pperf/"),
            (52, "msr/smi/"),
            (53, "msr/tsc/"),
            (54, "node-load-misses"),
            (55, "node-loads"),
            (56, "node-store-misses"),
            (57, "node-stores"),
        ];
        assert_eq!(pinned.len(), NUM_EVENTS);
        for (i, name) in pinned {
            assert_eq!(EVENT_NAMES[i], name, "EVENT_NAMES[{i}]");
            assert_eq!(event_index(name), Some(i), "{name}");
        }
        for unknown in ["", "L1", "instruction", "instructionss", "node-stores/", "zzz", "\0"] {
            assert_eq!(event_index(unknown), None, "{unknown:?}");
        }
    }
}
