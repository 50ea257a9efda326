//! Hostile input for the persisted artefacts the trace-codec suite does
//! not reach: the epoch-cache file ([`EpochCacheHandle::load`]), the
//! ground-truth store ([`GroundTruth::load`] over `Database::load`), the
//! committed benchmark reports the regression gate reads as its baseline
//! ([`BenchReport::from_json_str`]) and the line protocol a trace is
//! replayed into a store from (`Database::import_line_protocol`; its
//! mutations and its contract are with its test, at the end).
//!
//! Each stock file is mutated thousands of times — bytes flipped, deleted,
//! duplicated; truncation at every 64th; JSON tokens, `1e999`, `-0` and
//! `null` spliced over numbers; whole members deleted or doubled; the
//! digits of the members sizes are allocated from doubled; `feat_*` runs
//! made ragged — and every mutant must either be **rejected with a typed
//! error** or be **read into a value whose next real use does not panic**.
//! Both outcomes must occur, so the suite cannot pass by refusing
//! everything, nor by mutating only what nobody reads.
//!
//! "Next real use" is what the program does with the loaded value: for a
//! cache, a tuning run over it (every fresh trial peeks it, adopts the
//! prefixes it finds, trains on and evaluates the adopted state, and the
//! commit evicts from it) and a re-save of every entry; for a ground truth,
//! `lookup`, `record` and `refit`; for a benchmark report, writing it and
//! reading it back unchanged (the gate compares only what a report can hold).

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use pipetune::{
    EpochCacheConfig, EpochCacheHandle, ExperimentEnvBuilder, GroundTruth, PipeTune, PipeTuneError,
    TunerOptions, WorkloadSpec,
};
use pipetune_cluster::SystemConfig;
use pipetune_insight::BenchReport;
use pipetune_telemetry::TelemetryHandle;
use pipetune_tsdb::{Database, Point, TsdbError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The `Point` this workspace had before a point became one buffer, and
/// checks that hold the live decoders to it.
#[path = "../crates/tsdb/tests/frozen_point/mod.rs"]
mod frozen_point;

const SEED: u64 = 0x4057;
/// Mutants per artefact.
const MUTANTS: usize = 3_000;

/// `TunerOptions::fast()` at the budgets of the wall-clock benchmark's
/// `--quick` size, for the cache: five cached prefixes, a 1.9 MB file. The
/// full `fast()` run persists 22 (8.3 MB), which 3 000 mutants would write
/// and parse 25 GB of; the layout per entry is the same.
fn short_options() -> TunerOptions {
    TunerOptions { r_max: 3, epochs_range: (1, 3), ..TunerOptions::fast() }
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pipetune-hostile-{}-{name}", std::process::id()))
}

/// What `save` (of a cache or of a ground truth) writes.
fn saved_text<E: std::fmt::Debug>(name: &str, save: impl FnOnce(&Path) -> Result<(), E>) -> String {
    let file = scratch(name);
    save(&file).unwrap();
    let text = std::fs::read_to_string(&file).unwrap();
    std::fs::remove_file(&file).ok();
    text
}

/// The cache file one cold `lenet/mnist` run at scale 0.2 leaves behind.
fn stock_cache_file() -> String {
    let cache = EpochCacheHandle::with_config(EpochCacheConfig::default());
    let env = ExperimentEnvBuilder::distributed(SEED).epoch_cache(cache.clone()).build().unwrap();
    let cold = PipeTune::new(short_options()).run(&env, &WorkloadSpec::lenet_mnist()).unwrap();
    assert!(cold.cache_stats.inserts > 0);
    saved_text("stock-cache.json", |file| cache.save(file))
}

/// The ground-truth file of the same job under the whole `fast()` budget:
/// a trial records its profile only once it has probed, which takes more
/// epochs than the short budget grants.
fn stock_ground_truth_file() -> String {
    let env = ExperimentEnvBuilder::distributed(SEED).build().unwrap();
    let mut tuner = PipeTune::new(TunerOptions::fast());
    tuner.run(&env, &WorkloadSpec::lenet_mnist()).unwrap();
    assert!(tuner.ground_truth().len() >= 4);
    saved_text("stock-gt.json", |file| tuner.ground_truth().save(file))
}

// ---------------------------------------------------------------- mutation

/// One `"name":value` member of a JSON text, at whatever depth.
struct Member {
    name: Range<usize>,
    /// From the name's opening quote to the end of the value.
    span: Range<usize>,
    value: Range<usize>,
}

/// End of the string whose opening quote is at `at`.
fn string_end(bytes: &[u8], at: usize) -> usize {
    let mut i = at + 1;
    while bytes[i] != b'"' {
        i += 1 + usize::from(bytes[i] == b'\\');
    }
    i + 1
}

/// End of the JSON value starting at `at` (the stock files are well formed).
fn value_end(bytes: &[u8], at: usize) -> usize {
    let (mut i, mut depth) = (at, 0usize);
    loop {
        match bytes[i] {
            b'"' => {
                i = string_end(bytes, i);
                if depth == 0 {
                    return i;
                }
                continue;
            }
            b'[' | b'{' => depth += 1,
            b']' | b'}' | b',' if depth == 0 => return i,
            b']' | b'}' if depth == 1 => return i + 1,
            b']' | b'}' => depth -= 1,
            _ => {}
        }
        i += 1;
    }
}

/// `span` of the stock text, cut to a mutant `len` bytes long.
fn clamp(span: &Range<usize>, len: usize) -> Range<usize> {
    span.start.min(len)..span.end.min(len)
}

/// Every member of `text`, and every byte position outside the `bits`
/// payloads (the skeleton, where a mutation is most likely to mean
/// something).
fn survey(text: &str) -> (Vec<Member>, Vec<usize>) {
    let bytes = text.as_bytes();
    let (mut members, mut skeleton) = (Vec::new(), Vec::new());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'"' {
            skeleton.push(i);
            i += 1;
            continue;
        }
        let end = string_end(bytes, i);
        if bytes.get(end) == Some(&b':') {
            let value = end + 1..value_end(bytes, end + 1);
            members.push(Member { name: i + 1..end - 1, span: i..value.end, value });
        }
        // A string longer than any name or label is a payload.
        if end - i <= 64 {
            skeleton.extend(i..end);
        }
        i = end;
    }
    (members, skeleton)
}

/// Members whose digits size an allocation, or say how many there are.
const SIZING: [&str; 6] = ["scale", "embedding_dim", "batch_size", "shape", "capacity", "epochs"];
const SPLICES: [&[u8]; 14] = [
    b"{",
    b"}",
    b"[",
    b"]",
    b"\"",
    b",",
    b":",
    b"\\",
    b"null",
    b"-",
    b"1e999",
    b"-0",
    b"\\ud800",
    b"18446744073709551616",
];

/// Mutant number `n` of `text`: what was done, and the bytes.
fn mutate(text: &str, members: &[Member], skeleton: &[usize], n: usize) -> (String, Vec<u8>) {
    let mut bytes = text.as_bytes().to_vec();
    // The first 63 mutants are the truncations at every 64th of the file.
    if (1..64).contains(&n) {
        bytes.truncate(n * bytes.len() / 64);
        return (format!("truncated at {n}/64"), bytes);
    }
    let rng = &mut StdRng::seed_from_u64(SEED ^ ((n as u64) << 8));
    let mut done = Vec::new();
    for _ in 0..rng.gen_range(1..3u32) {
        let at = if rng.gen_bool(0.8) {
            skeleton[rng.gen_range(0..skeleton.len())]
        } else {
            rng.gen_range(0..text.len())
        }
        .min(bytes.len() - 1);
        let member = &members[rng.gen_range(0..members.len())];
        let named = |names: &[&str], rng: &mut StdRng| {
            let of: Vec<&Member> = members
                .iter()
                .filter(|m| names.iter().any(|n| text[m.name.clone()].starts_with(n)))
                .collect();
            (!of.is_empty()).then(|| of[rng.gen_range(0..of.len())])
        };
        // Spans index the stock text: a second structural edit of one
        // mutant lands where the first one left those bytes.
        match rng.gen_range(0..10u32) {
            0 => {
                bytes[at] ^= 1 << rng.gen_range(0..8u32);
                done.push(format!("flip @{at}"));
            }
            1 => {
                let end = (at + rng.gen_range(1..9usize)).min(bytes.len());
                bytes.drain(at..end);
                done.push(format!("delete {at}..{end}"));
            }
            2 => {
                let end = (at + rng.gen_range(1..40usize)).min(bytes.len());
                let run = bytes[at..end].to_vec();
                bytes.splice(at..at, run);
                done.push(format!("duplicate {at}..{end}"));
            }
            3 => {
                let splice = SPLICES[rng.gen_range(0..SPLICES.len())];
                bytes.splice(at..at, splice.iter().copied());
                done.push(format!("splice {:?} @{at}", String::from_utf8_lossy(splice)));
            }
            4 => {
                let span = clamp(&member.span, bytes.len());
                // With the comma that follows, when one does.
                let end = span.end + usize::from(bytes.get(span.end) == Some(&b','));
                bytes.drain(span.start..end);
                done.push(format!("delete member {}", &text[member.name.clone()]));
            }
            5 => {
                let span = clamp(&member.span, bytes.len());
                let mut copy = bytes[span.clone()].to_vec();
                copy.push(b',');
                bytes.splice(span.start..span.start, copy);
                done.push(format!("double member {}", &text[member.name.clone()]));
            }
            6 | 7 => {
                // A number, somewhere in a sizing member or anywhere at all.
                let Some(within) =
                    (if rng.gen_bool(0.5) { named(&SIZING, rng) } else { Some(member) })
                else {
                    continue;
                };
                let value = clamp(&within.value, bytes.len());
                let digits: Vec<usize> =
                    value.clone().filter(|&i| bytes[i].is_ascii_digit()).collect();
                if digits.is_empty() {
                    continue;
                }
                let mut start = digits[rng.gen_range(0..digits.len())];
                while start > value.start && bytes[start - 1].is_ascii_digit() {
                    start -= 1;
                }
                let end =
                    (start..value.end).find(|&i| !bytes[i].is_ascii_digit()).unwrap_or(value.end);
                let run = bytes[start..end].to_vec();
                let name = &text[within.name.clone()];
                if rng.gen_bool(0.5) {
                    bytes.splice(end..end, run);
                    done.push(format!("double the digits {start}..{end} of {name}"));
                } else {
                    let with: &[u8] = [&b"1e999"[..], b"-0", b"null", b"0", b"4294967296"]
                        [rng.gen_range(0..5usize)];
                    bytes.splice(start..end, with.iter().copied());
                    done.push(format!(
                        "{} over {start}..{end} of {name}",
                        String::from_utf8_lossy(with)
                    ));
                }
            }
            8 => {
                // A ragged feature run (ground truth) or a short tensor
                // (cache): drop one element's worth from the middle.
                let Some(m) = named(&["feat_", "bits"], rng) else { continue };
                let (span, value) = (clamp(&m.span, bytes.len()), clamp(&m.value, bytes.len()));
                if text[m.name.clone()].starts_with("feat_") {
                    let end = span.end + usize::from(bytes.get(span.end) == Some(&b','));
                    bytes.drain(span.start..end);
                } else if value.len() > 16 {
                    bytes.drain(value.start + 1..value.start + 9);
                }
                done.push(format!("shorten {}", &text[m.name.clone()]));
            }
            _ => {
                // One member's value for another's.
                let other = &members[rng.gen_range(0..members.len())];
                if other.value.len() > 4096 || other.value.end > bytes.len() {
                    continue;
                }
                let with = bytes[other.value.clone()].to_vec();
                bytes.splice(clamp(&member.value, bytes.len()), with);
                done.push(format!(
                    "{} takes the value of {}",
                    &text[member.name.clone()],
                    &text[other.name.clone()]
                ));
            }
        }
        if bytes.is_empty() {
            break;
        }
    }
    (done.join("; "), bytes)
}

/// Runs `MUTANTS` mutants of `stock` through `judge` — `Ok(true)` read and
/// used, `Ok(false)` rejected with a typed error, `Err` a rejection that
/// was not typed — under `catch_unwind`; returns `(read, rejected)`.
fn run_mutants(
    what: &str,
    stock: &str,
    mut judge: impl FnMut(&Path) -> Result<bool, String>,
) -> (usize, usize) {
    let (members, skeleton) = survey(stock);
    let file = scratch(&format!("{what}.json"));
    let (mut read, mut rejected, mut failures) = (0, 0, Vec::new());
    for n in 0..MUTANTS {
        let (done, bytes) = mutate(stock, &members, &skeleton, n);
        std::fs::write(&file, &bytes).unwrap();
        match catch_unwind(AssertUnwindSafe(|| judge(&file))) {
            Ok(Ok(true)) => read += 1,
            Ok(Ok(false)) => rejected += 1,
            Ok(Err(untyped)) => failures.push(format!("mutant {n} ({done}): {untyped}")),
            Err(panic) => {
                let said = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("(no message)");
                failures.push(format!("mutant {n} ({done}): panicked: {said}"));
            }
        }
    }
    std::fs::remove_file(&file).ok();
    assert!(
        failures.is_empty(),
        "{} of {MUTANTS} {what} mutants were neither rejected with a typed error nor usable:\n{}",
        failures.len(),
        failures.join("\n")
    );
    println!("{what}: {MUTANTS} mutants, {read} read and used, {rejected} rejected, 0 panics");
    (read, rejected)
}

// ------------------------------------------------------------------- tests

#[test]
fn mutated_cache_files_are_rejected_or_usable_never_a_panic() {
    let stock = stock_cache_file();
    let spec = WorkloadSpec::lenet_mnist();
    let resave = scratch("cache-resave.json");
    // What a later run does with a loaded cache.
    let next_use = |cache: EpochCacheHandle| {
        let env =
            ExperimentEnvBuilder::distributed(SEED).epoch_cache(cache.clone()).build().unwrap();
        let run = PipeTune::new(short_options()).run(&env, &spec);
        cache.save(&resave).unwrap();
        run.map(|outcome| outcome.cache_stats.hits)
    };
    // The use is real: over the unmutated file every fresh trial adopts.
    let file = scratch("cache-unmutated.json");
    std::fs::write(&file, &stock).unwrap();
    let hits = next_use(EpochCacheHandle::load(&file).unwrap()).unwrap();
    std::fs::remove_file(&file).ok();
    assert!(hits >= 3, "the stock cache should serve the rerun, served {hits}");

    let mut adopted = 0;
    let (read, rejected) =
        run_mutants("cache", &stock, |file| match EpochCacheHandle::load(file) {
            Ok(cache) => {
                // A run over a strange-but-valid cache may fail; typed is fine.
                adopted += usize::from(next_use(cache).is_ok_and(|hits| hits > 0));
                Ok(true)
            }
            Err(PipeTuneError::Tsdb(_) | PipeTuneError::Dnn(_)) => Ok(false),
            Err(other) => Err(format!("untyped rejection {other:?}")),
        });
    std::fs::remove_file(&resave).ok();
    // The mutations must land on both sides to mean anything, and the
    // mutants that load must still be adopted from.
    assert!(
        read > 300 && rejected > 1000 && adopted > 100,
        "{read} read ({adopted} adopted from), {rejected} rejected"
    );
}

#[test]
fn mutated_ground_truth_files_are_rejected_or_usable_never_a_panic() {
    let stock = stock_ground_truth_file();
    let load =
        |file: &Path| GroundTruth::load(file, 2, TunerOptions::fast().threshold_factor, SEED);
    let file = scratch("gt-unmutated.json");
    std::fs::write(&file, &stock).unwrap();
    let features = load(&file).unwrap().feature_history().swap_remove(0);
    std::fs::remove_file(&file).ok();

    let (read, rejected) = run_mutants("ground truth", &stock, |file| match load(file) {
        Ok(mut gt) => {
            // Lookups answer or decline; recording and refitting over a
            // ragged history may fail, typed.
            let _ = gt.lookup(&features);
            let _ = gt.record("lenet/mnist", &features, SystemConfig::new(8, 16), 100.0);
            let _ = gt.refit();
            let _ = gt.lookup(&features[..features.len() / 2]);
            Ok(true)
        }
        Err(PipeTuneError::Tsdb(_) | PipeTuneError::Clustering(_)) => Ok(false),
        Err(other) => Err(format!("untyped rejection {other:?}")),
    });
    assert!(read > 300 && rejected > 1000, "{read} read, {rejected} rejected");
}

/// Every ground-truth mutant again, as the text `Database::load` hands to
/// `serde_json`: the hand-written `Deserialize` of the one-buffer `Point`
/// reads the points the derive read for the two-map one, or both refuse.
#[test]
fn mutated_ground_truth_files_read_like_the_frozen_point() {
    let stock = stock_ground_truth_file();
    assert!(frozen_point::assert_document_reads_alike(&stock));
    let (members, skeleton) = survey(&stock);
    let mut read = 0;
    for n in 0..MUTANTS {
        let (_, bytes) = mutate(&stock, &members, &skeleton, n);
        read += usize::from(frozen_point::assert_document_reads_alike(&String::from_utf8_lossy(
            &bytes,
        )));
    }
    println!(
        "ground truth documents: {MUTANTS} mutants, {read} read alike, the rest refused alike"
    );
    assert!(read > 300 && read < MUTANTS - 1000, "{read} read");
}

/// The gate's baseline, the committed chaos report: a mutant is refused or
/// read into a report that survives its own `to_json_string` unchanged —
/// nothing the gate would compare is a value the report could not have
/// written.
#[test]
fn mutated_bench_reports_are_refused_or_round_trip_never_a_panic() {
    let stock = include_str!("../BENCH_pipetune.chaos.json");
    let report = BenchReport::from_json_str(stock).unwrap();
    assert_eq!(format!("{}\n", report.to_json_string()), stock);

    let (read, rejected) = run_mutants("bench report", stock, |file| {
        let Ok(text) = std::fs::read_to_string(file) else { return Ok(false) };
        let Ok(report) = BenchReport::from_json_str(&text) else { return Ok(false) };
        let written = report.to_json_string();
        match BenchReport::from_json_str(&written) {
            Ok(back) if back == report && back.to_json_string() == written => Ok(true),
            other => Err(format!("read, but does not round-trip: {other:?}")),
        }
    });
    // Most of a report is digits, so most mutants still read.
    assert!(read > 300 && rejected > 300, "{read} read, {rejected} rejected");
}

// ------------------------------------------------------------ line protocol

/// The line protocol of a recorded tuning run's trace, and of a few points
/// whose names need every escape and hold multi-byte characters.
fn stock_line_protocol() -> String {
    let telemetry = TelemetryHandle::enabled();
    let env = ExperimentEnvBuilder::distributed(SEED).telemetry(telemetry.clone()).build().unwrap();
    PipeTune::new(TunerOptions::fast()).run(&env, &WorkloadSpec::lenet_mnist()).unwrap();
    let mut text = telemetry.snapshot().unwrap().to_line_protocol();
    let db = Database::new();
    for (i, name) in ["température", "m x,y=z\\", "测量 值", "naïve\\"].iter().enumerate() {
        let point = Point::new(*name, i as u64)
            .tag("clé, la", "välue = ü")
            .tag("k", name)
            .field(format!("{name} f"), i as f64 / 3.0)
            .field("g", 1e-7);
        db.write(point).unwrap();
    }
    text.push_str(&db.to_line_protocol());
    text.push('\n');
    text
}

/// Field values the decoder must take a side on, spliced over a value.
const FIELD_VALUES: [&str; 12] =
    ["nan", "NaN", "inf", "-inf", "1e999", "-0", "5i", "i", "", "0x10", "1_0", "١٢"];

/// Mutant number `n` of a line-protocol text.
fn mutate_lines(text: &str, n: usize) -> (String, Vec<u8>) {
    let mut bytes = text.as_bytes().to_vec();
    if (1..64).contains(&n) {
        bytes.truncate(n * bytes.len() / 64);
        return (format!("truncated at {n}/64"), bytes);
    }
    let rng = &mut StdRng::seed_from_u64(SEED ^ ((n as u64) << 8));
    // Where the separators and the multi-byte characters are.
    let special = |rng: &mut StdRng, wanted: &dyn Fn(u8) -> bool| {
        let from = rng.gen_range(0..text.len());
        (from..text.len()).chain(0..from).find(|&i| wanted(text.as_bytes()[i])).unwrap_or(from)
    };
    let mut done = Vec::new();
    for _ in 0..rng.gen_range(1..3u32) {
        let at = rng.gen_range(0..text.len()).min(bytes.len() - 1);
        match rng.gen_range(0..10u32) {
            0 => {
                bytes[at] ^= 1 << rng.gen_range(0..8u32);
                done.push(format!("flip @{at}"));
            }
            1 => {
                let end = (at + rng.gen_range(1..9usize)).min(bytes.len());
                bytes.drain(at..end);
                done.push(format!("delete {at}..{end}"));
            }
            2 => {
                let end = (at + rng.gen_range(1..40usize)).min(bytes.len());
                let run = bytes[at..end].to_vec();
                bytes.splice(at..at, run);
                done.push(format!("duplicate {at}..{end}"));
            }
            3 => {
                // A backslash doubled, or one more at the end of a line or
                // of the text.
                let at = match rng.gen_range(0..3u32) {
                    0 => special(rng, &|b| b == b'\\'),
                    1 => special(rng, &|b| b == b'\n'),
                    _ => bytes.len(),
                }
                .min(bytes.len());
                bytes.insert(at, b'\\');
                done.push(format!("backslash @{at}"));
            }
            4 => {
                // A run of one separator where one stood.
                let at = special(rng, &|b| matches!(b, b'=' | b',' | b' ')).min(bytes.len() - 1);
                let run = vec![bytes[at]; rng.gen_range(1..4usize)];
                bytes.splice(at..at, run);
                done.push(format!("separator run @{at}"));
            }
            5 | 6 => {
                // Another value for a field: from an `=` to the `,` or
                // space that ends it.
                let from = special(rng, &|b| b == b'=').min(bytes.len() - 1) + 1;
                let to = (from..bytes.len())
                    .find(|&i| matches!(bytes[i], b',' | b' ' | b'\n'))
                    .unwrap_or(bytes.len());
                let value = FIELD_VALUES[rng.gen_range(0..FIELD_VALUES.len())];
                bytes.splice(from..to, value.bytes());
                done.push(format!("{value:?} over {from}..{to}"));
            }
            7 => {
                // A timestamp of twenty digits (past `u64`), or none.
                let end = special(rng, &|b| b == b'\n').min(bytes.len());
                let start = bytes[..end].iter().rposition(|&b| b == b' ').map_or(end, |i| i + 1);
                let with: &[u8] = if rng.gen_bool(0.7) { b"99999999999999999999" } else { b"" };
                bytes.splice(start..end, with.iter().copied());
                done.push(format!("timestamp {start}..{end}"));
            }
            8 => {
                // Half a character: one byte out of a multi-byte one.
                let at = special(rng, &|b| b >= 0x80).min(bytes.len() - 1);
                bytes.remove(at);
                done.push(format!("split the character @{at}"));
            }
            _ => {
                // A line cut in two, or two joined.
                let at = special(rng, &|b| matches!(b, b'\n' | b',')).min(bytes.len() - 1);
                bytes[at] = if bytes[at] == b'\n' { b',' } else { b'\n' };
                done.push(format!("line break @{at}"));
            }
        }
        if bytes.is_empty() {
            break;
        }
    }
    (done.join("; "), bytes)
}

/// `Database::import_line_protocol` is all or nothing and safe on hostile
/// text: every mutant of a real export is refused with a typed error, the
/// store left as it was, or imported whole — as many points as it has
/// lines, each the point its line decodes to, each surviving a re-export
/// and re-import unchanged. Both happen. And the decoder answers every
/// mutated line as the frozen one did.
#[test]
fn mutated_line_protocol_imports_whole_or_not_at_all_never_a_panic() {
    let stock = stock_line_protocol();
    let stock_lines: std::collections::HashSet<&str> = stock.lines().collect();
    assert!(stock_lines.len() > 100, "{} distinct lines", stock_lines.len());
    let before = Point::new("already", 1).field("here", 1.0);

    let (mut imported, mut rejected, mut failures) = (0, 0, Vec::new());
    for n in 0..MUTANTS {
        let (done, bytes) = mutate_lines(&stock, n);
        let text = String::from_utf8_lossy(&bytes);
        let judged = catch_unwind(AssertUnwindSafe(|| -> Result<bool, String> {
            for line in text.lines().filter(|line| !stock_lines.contains(line)) {
                frozen_point::assert_line_decodes_alike(line);
            }
            let db = Database::new();
            db.write(before.clone()).unwrap();
            let count = match db.import_line_protocol(&text) {
                Ok(count) => count,
                Err(TsdbError::Corrupt { .. }) => {
                    let mut only = String::new();
                    before.write_line_protocol(&mut only);
                    return if db.to_line_protocol() == only {
                        Ok(false)
                    } else {
                        Err(format!("a refused import left {} points behind", db.len() - 1))
                    };
                }
                Err(other) => return Err(format!("untyped rejection {other:?}")),
            };
            let lines: Vec<&str> = text
                .lines()
                .map(str::trim)
                .filter(|line| !line.is_empty() && !line.starts_with('#'))
                .collect();
            if count != lines.len() || db.len() != count + 1 {
                return Err(format!(
                    "{count} imported, {} stored, {} lines",
                    db.len(),
                    lines.len()
                ));
            }
            // Re-export → re-import: the same points (by bit pattern where
            // a field is NaN, which is equal to nothing).
            let again = Database::new();
            let exported = db.to_line_protocol();
            if again.import_line_protocol(&exported).map_err(|e| e.to_string())? != count + 1
                || again.to_line_protocol() != exported
            {
                return Err("the store does not survive its own export".into());
            }
            for (line, exported) in lines.iter().zip(exported.lines().skip(1)) {
                let point = Point::from_line_protocol(line).map_err(|e| e.to_string())?;
                let back = Point::from_line_protocol(exported).map_err(|e| e.to_string())?;
                let same = if point.fields().any(|(_, v)| v.is_nan()) {
                    frozen_point::contents(&point) == frozen_point::contents(&back)
                } else {
                    point == back
                };
                if !same {
                    return Err(format!("{line:?} came back as {back:?}"));
                }
            }
            Ok(true)
        }));
        match judged {
            Ok(Ok(true)) => imported += 1,
            Ok(Ok(false)) => rejected += 1,
            Ok(Err(wrong)) => failures.push(format!("mutant {n} ({done}): {wrong}")),
            Err(panic) => {
                let said = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("(no message)");
                failures.push(format!("mutant {n} ({done}): panicked: {said}"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {MUTANTS} line-protocol mutants were neither refused whole nor imported whole:\n{}",
        failures.len(),
        failures.join("\n")
    );
    println!("line protocol: {MUTANTS} mutants, {imported} imported whole, {rejected} refused whole, 0 panics");
    assert!(imported > 300 && rejected > 1000, "{imported} imported, {rejected} rejected");
}
