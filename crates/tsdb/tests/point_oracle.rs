//! The one-buffer [`Point`] against the two-B-tree one it replaced
//! (`frozen_point/`, verbatim): whatever sequence of builder calls made
//! them, the two hold the same contents, print and persist as the same
//! bytes, answer every accessor alike and agree on what equals what; and
//! the two decoders — line protocol and `Deserialize` — agree on every text
//! these points export as, mutated or not. (`tests/persist_hostile.rs` at
//! the workspace root holds the same two decoders to its mutants of a
//! recorded trace's line protocol and of a ground-truth file.)

mod frozen_point;

use frozen_point::{
    assert_document_reads_alike, assert_line_decodes_alike, contents, frozen_contents, FrozenPoint,
};
use pipetune_tsdb::{Database, Point};
use proptest::collection::vec;
use proptest::prelude::*;

/// Keys and values from an alphabet of few letters — so keys repeat and
/// arrive out of order — and every character the line protocol escapes.
const TOKEN: &str = "[ab ,=\\\\é]{0,3}";

const VALUES: [f64; 10] = [
    0.0,
    -0.0,
    1.5,
    -2.0e-7,
    1.0e300,
    f64::MIN_POSITIVE,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    12_345.678_9,
];

/// One builder call: which, its key (or prefix), its tag value, where in
/// [`VALUES`] its field values start and how many a `field_vec` takes.
type Op = (u32, String, String, usize, usize);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    vec((0u32..4, TOKEN, TOKEN, 0usize..VALUES.len(), 0usize..14), 0..12)
}

fn values(from: usize, count: usize) -> Vec<f64> {
    (0..count).map(|i| VALUES[(from + i) % VALUES.len()]).collect()
}

/// Both points after `ops`, their contents compared after every call.
fn build(measurement: &str, timestamp_us: u64, ops: &[Op]) -> (Point, FrozenPoint) {
    let mut live = Point::new(measurement, timestamp_us);
    let mut frozen = FrozenPoint::new(measurement, timestamp_us);
    for (kind, key, value, from, count) in ops {
        (live, frozen) = match kind {
            0 => (live.tag(key, value), frozen.tag(key, value)),
            1 | 2 => (live.field(key, VALUES[*from]), frozen.field(key, VALUES[*from])),
            _ => {
                let values = values(*from, *count);
                (live.field_vec(key, &values), frozen.field_vec(key, &values))
            }
        };
        assert_eq!(contents(&live), frozen_contents(&frozen), "after {kind} {key:?} {value:?}");
    }
    (live, frozen)
}

fn line(point: &Point) -> String {
    let mut out = String::from("x\n");
    point.write_line_protocol(&mut out);
    assert_eq!(out[2..], point.to_line_protocol());
    out.split_off(2)
}

fn bits(values: Vec<f64>) -> Vec<u64> {
    values.into_iter().map(f64::to_bits).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn builder_sequences_build_the_frozen_point(
        measurement in TOKEN,
        timestamp_us in 0u64..u64::MAX,
        first in ops(),
        second in ops(),
        probe in TOKEN,
    ) {
        let (live, frozen) = build(&measurement, timestamp_us, &first);

        // The same bytes out: line protocol and the persisted document.
        let mut frozen_line = String::new();
        frozen_point::write_line_protocol(&frozen, &mut frozen_line);
        prop_assert_eq!(line(&live), frozen_line);
        prop_assert_eq!(
            serde_json::to_string(&live).unwrap(),
            serde_json::to_string(&frozen).unwrap()
        );

        // The same answers, for keys that are there and keys that are not.
        let keys: Vec<&str> =
            first.iter().flat_map(|op| [op.1.as_str(), op.2.as_str()]).chain([probe.as_str()]).collect();
        for key in keys {
            prop_assert_eq!(live.tag_value(key), frozen.tag_value(key));
            prop_assert_eq!(
                live.field_value(key).map(f64::to_bits),
                frozen.field_value(key).map(f64::to_bits)
            );
            prop_assert_eq!(bits(live.field_vec_values(key)), bits(frozen.field_vec_values(key)));
        }
        prop_assert_eq!(live.measurement(), frozen.measurement());
        prop_assert_eq!(live.timestamp_us(), frozen.timestamp_us());
        // Storable is what the store takes.
        prop_assert_eq!(Database::new().write(live.clone()).is_ok(), frozen.is_storable());

        // The same equalities: with itself (false with a NaN field), with a
        // clone built in another order, with another point altogether.
        let reversed: Vec<Op> = first.iter().rev().cloned().collect();
        for other in [&first, &reversed, &second] {
            let (other_live, other_frozen) = build(&measurement, timestamp_us, other);
            prop_assert_eq!(live == other_live, frozen == other_frozen);
        }
        let (later_live, later_frozen) = build(&measurement, timestamp_us ^ 1, &first);
        prop_assert_eq!(live == later_live, frozen == later_frozen);

        // And back in: both decoders on both exports.
        assert_line_decodes_alike(&line(&live));
        let document = serde_json::to_string(&vec![live, later_live]).unwrap();
        prop_assert!(assert_document_reads_alike(&document));
    }

    /// Flip, delete or duplicate a byte of either export: the two decoders
    /// still agree, on the value or on the rejection.
    #[test]
    fn mutated_exports_decode_like_the_frozen_point(
        measurement in "[m ,=\\\\é]{1,3}",
        ops in ops(),
        at in 0usize..10_000,
        mutation in 0u32..3,
        bit in 0u32..8,
    ) {
        let (live, _) = build(&measurement, 7, &ops);
        for text in [line(&live), serde_json::to_string(&vec![live]).unwrap()] {
            let mut bytes = text.clone().into_bytes();
            let at = at % bytes.len();
            match mutation {
                0 => bytes[at] ^= 1 << bit,
                1 => drop(bytes.remove(at)),
                _ => bytes.insert(at, bytes[at]),
            }
            let mutant = String::from_utf8_lossy(&bytes);
            if text.starts_with('[') {
                assert_document_reads_alike(&mutant);
            } else {
                assert_line_decodes_alike(&mutant);
            }
        }
    }
}

#[test]
fn documents_the_derive_read_differently_from_a_plain_map_read_alike() {
    for document in [
        // Members missing, doubled (the first counts), unknown, mistyped.
        r#"[{"measurement":"m","tags":{},"fields":{"f":1.0},"timestamp_us":1}]"#,
        r#"[{"measurement":"m","tags":{},"fields":{"f":1.0}}]"#,
        r#"[{"measurement":"m","tags":{},"timestamp_us":1}]"#,
        r#"[{"measurement":"m","fields":{},"timestamp_us":1}]"#,
        r#"[{"tags":{},"fields":{},"timestamp_us":1}]"#,
        r#"[{"measurement":"a","measurement":"b","tags":{},"fields":{},"timestamp_us":1,"timestamp_us":2}]"#,
        r#"[{"measurement":"m","tags":{"k":"1","k":"2"},"fields":{"f":1,"f":2.5,"a":null},"timestamp_us":1,"extra":[1,{}]}]"#,
        r#"[{"measurement":1,"tags":{},"fields":{},"timestamp_us":1}]"#,
        r#"[{"measurement":"m","tags":[],"fields":{},"timestamp_us":1}]"#,
        r#"[{"measurement":"m","tags":{"k":1},"fields":{},"timestamp_us":1}]"#,
        r#"[{"measurement":"m","tags":{},"fields":{"f":"1"},"timestamp_us":1}]"#,
        r#"[{"measurement":"m","tags":{},"fields":{"f":true},"timestamp_us":1}]"#,
        r#"[{"measurement":"m","tags":{},"fields":{},"timestamp_us":-1}]"#,
        r#"[{"measurement":"m","tags":{},"fields":{},"timestamp_us":1.0}]"#,
        r#"[{"measurement":"m","tags":{},"fields":{},"timestamp_us":18446744073709551615}]"#,
        r#"[{"measurement":"m","tags":{},"fields":{},"timestamp_us":18446744073709551616}]"#,
        r#"[{"measurement":"m","tags":{},"fields":{"z":1,"a":2,"m":1e999,"b":-0},"timestamp_us":null}]"#,
        r#"[[],{}]"#,
        r#"{}"#,
        r#"[null]"#,
        r#"[]"#,
    ] {
        assert_document_reads_alike(document);
    }
}

/// Lines that take the one-scan decoder down each of its paths — escapes
/// where a trace puts them and where it never does, numbers in every
/// spelling it reads, repeated keys, whitespace at either end, no
/// timestamp, lines wrong in several ways at once — and every line
/// `line_protocol.rs`'s own tests reject: the same contents, or the same
/// complaint.
#[test]
fn fixed_lines_decode_like_the_frozen_point() {
    for line in [
        // Escaped spaces, as in every epoch label of a trace.
        r"pipetune_span,kind=epoch,label=epoch\ 6\ (probe) duration_secs=0.5,end_secs=12.5 120",
        r"m\ x,k\ 1=v\ 2,k\,2=v\=3 f\ 1=1,f\=2=2 5",
        // A backslash before what needs no escape, before a multi-byte
        // character, doubled, and alone at the end of the line.
        r"m\a,k\b=v\c f\d=1 5",
        r"m\é,\é=\é \é=1 5",
        r"m\\,k\\=v\\ f\\=1 5",
        r"m f=1 5\",
        r"m f=1\",
        r"m f\",
        r"m,k=v\",
        r"m\",
        // Numbers: the `i` suffix, 17 digits, the ends of the range, and the
        // spellings `str::parse` takes or refuses.
        "m f=5i,g=-3i 1",
        "m f=1ii 1",
        "m f=i 1",
        "m f=infi,g=NaN,h=-inf 1",
        "m duration_secs=0.30000000000000004,x=12345.678901234567,y=0.8999999761581421 1",
        "m f=1.7976931348623157e308,g=5e-324,h=1e400,k=-0 1",
        "m f=+1,g=.5,h=5.,k=1E5 1",
        "m f=1_0 1",
        "m f=0x10 1",
        "m f=1 18446744073709551615",
        "m f=1 18446744073709551616",
        "m f=1 +5",
        "m f=1 -5",
        "m f=1 1,2",
        // Repeated keys: the last one wins, in any order.
        "m,k=1,k=2 f=1,f=2 5",
        "m,b=1,a=2,b=3 z=1,a=2,z=3 5",
        "m ev_10=1,ev_2=2,ev_1=3,ev_2=4 5",
        // Whitespace and carriage returns at either end, and inside.
        " m f=1 5",
        "m f=1 5 ",
        "\tm f=1 5\r",
        "m f=1 5\r\n",
        "\r m f=1\t",
        "m f=1\r 5",
        "m\u{a0}f=1 5",
        "\u{a0}m f=1 5\u{3000}",
        // No timestamp.
        "m f=1",
        "m,k=v f=1,g=2",
        // `line_protocol.rs`'s `rejects_malformed_lines`.
        "",
        "m",
        "m ",
        "m f",
        "m f=x",
        "m f=1 notanumber",
        "m,k f=1",
        // Wrong in several ways: the segment count, then the timestamp,
        // then the first bad token.
        "m,k f=x bad",
        "m,k f=x 1 2",
        ",k f=1 x",
        ",k f=1",
        "m  5",
        "m  f=1",
        "m  5 6",
        "m f=1  5",
        "m f=1,, 5",
        "m f=1, 5",
        "m ,f=1 5",
        "m, f=1",
        "m,=v f=1",
        "m,k= f=1",
        "m =1 5",
        "m f==1 5",
        "m,k=v=w f=1",
        "=m f=1",
        "m,k=v,=,k f=x,=1 5",
    ] {
        assert_line_decodes_alike(line);
    }
}
