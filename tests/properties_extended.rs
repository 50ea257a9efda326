//! Second property-test suite: clustering density invariants, wire-format
//! round-trips, the processor-sharing fluid model, simulated time, arrivals
//! and the dropout/conv layers' stochastic contracts.

use pipetune::{simulate_processor_sharing, SharedJob};
use pipetune_cluster::{PoissonArrivals, SimTime};
use pipetune_clustering::{Dbscan, DbscanLabel};
use pipetune_tsdb::Point;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dbscan_core_points_are_never_noise(
        n_per_blob in 4usize..12,
        sep in 5.0..50.0f64,
    ) {
        let mut data = Vec::new();
        for i in 0..n_per_blob {
            let j = i as f64 * 0.1;
            data.push(vec![j, 0.0]);
            data.push(vec![sep + j, sep]);
        }
        let model = Dbscan::new(1.5, 3).fit(&data).unwrap();
        // Every point sits in a dense blob → no noise at all, two clusters.
        prop_assert!(model.labels().iter().all(|&l| l != DbscanLabel::Noise));
        prop_assert_eq!(model.num_clusters(), 2);
        // Predictions on training points match their labels.
        for (p, &l) in data.iter().zip(model.labels()) {
            let (pl, _) = model.predict(p);
            prop_assert_eq!(pl, l);
        }
    }

    #[test]
    fn dbscan_labels_are_dense_consecutive_ids(
        seed_jitter in 0.0..0.3f64,
    ) {
        let mut data = Vec::new();
        for b in 0..3 {
            for i in 0..5 {
                data.push(vec![b as f64 * 10.0 + i as f64 * seed_jitter.max(0.01), 0.0]);
            }
        }
        let model = Dbscan::new(1.0, 3).fit(&data).unwrap();
        let max_label = model
            .labels()
            .iter()
            .filter_map(DbscanLabel::cluster)
            .max()
            .unwrap_or(0);
        prop_assert_eq!(max_label + 1, model.num_clusters());
    }

    #[test]
    fn line_protocol_round_trips_arbitrary_points(
        measurement in "[a-zA-Z][a-zA-Z0-9 ,=_-]{0,16}",
        tag_val in "[a-zA-Z0-9 ,=/_-]{0,12}",
        value in -1e12..1e12f64,
        ts in 0u64..u64::MAX / 2,
    ) {
        let p = Point::new(measurement.clone(), ts)
            .tag("k", tag_val.clone())
            .field("v", value);
        let line = p.to_line_protocol();
        let back = Point::from_line_protocol(&line).unwrap();
        prop_assert_eq!(back.measurement(), measurement.as_str());
        prop_assert_eq!(back.tag_value("k"), Some(tag_val.as_str()));
        prop_assert_eq!(back.timestamp_us(), ts);
        let v = back.field_value("v").unwrap();
        prop_assert!((v - value).abs() <= value.abs() * 1e-12 + 1e-12);
    }

    #[test]
    fn processor_sharing_preserves_work_and_ordering(
        arrivals in proptest::collection::vec(0.0..1000.0f64, 1..12),
        services in proptest::collection::vec(1.0..500.0f64, 12),
    ) {
        let jobs: Vec<SharedJob> = arrivals
            .iter()
            .zip(&services)
            .map(|(&a, &s)| SharedJob { arrival_secs: a, service_secs: s })
            .collect();
        let done = simulate_processor_sharing(&jobs).unwrap();
        prop_assert_eq!(done.len(), jobs.len());
        // Response at least the dedicated service time; completion ordering
        // is non-decreasing; total busy time conserved.
        let mut total_service = 0.0;
        for c in &done {
            prop_assert!(c.response_secs >= jobs[c.job].service_secs - 1e-6);
            total_service += jobs[c.job].service_secs;
        }
        prop_assert!(done.windows(2).all(|w| w[0].completion_secs <= w[1].completion_secs + 1e-9));
        let span_end = done.iter().map(|c| c.completion_secs).fold(0.0, f64::max);
        let first_arrival = arrivals.iter().copied().fold(f64::INFINITY, f64::min);
        prop_assert!(span_end >= first_arrival + total_service / jobs.len() as f64 - 1e-6);
        prop_assert!(span_end <= first_arrival + total_service + 1000.0 + 1e-6);
    }

    #[test]
    fn simtime_round_trip_is_microsecond_exact(
        secs in 0.0..1e7f64,
    ) {
        let t = SimTime::from_secs_f64(secs);
        prop_assert!((t.as_secs_f64() - secs).abs() < 1e-6);
    }

    #[test]
    fn poisson_arrivals_are_strictly_ordered_and_positive(
        rate in 0.001..10.0f64,
        seed in 0u64..500,
    ) {
        let mut p = PoissonArrivals::new(rate, seed);
        let times: Vec<SimTime> = (0..50).map(|_| p.next_arrival()).collect();
        prop_assert!(times.windows(2).all(|w| w[0] <= w[1]));
        prop_assert!(times[0] > SimTime::ZERO);
    }

    #[test]
    fn dropout_keeps_expectation_for_any_rate(
        rate in 0.0..0.9f32,
        seed in 0u64..200,
    ) {
        use pipetune_dnn::Dropout;
        use pipetune_tensor::Tensor;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut drop = Dropout::new(rate).unwrap();
        let x = Tensor::ones(&[4000]);
        let y = drop.forward(&x, true, &mut rng);
        let mean = f64::from(y.mean());
        // The survivor mean's standard error grows like
        // sqrt(keep·scale² − 1)/sqrt(n); allow 5 sigma.
        let keep = f64::from(1.0 - rate);
        let sigma = ((1.0 / keep - 1.0).max(0.0) / 4000.0).sqrt();
        prop_assert!((mean - 1.0).abs() < 0.05 + 5.0 * sigma, "rate {rate}: mean {mean}");
    }

    #[test]
    fn conv2d_is_linear_in_the_input(
        seed in 0u64..200,
        alpha in -3.0..3.0f32,
    ) {
        use pipetune_tensor::{conv2d, Tensor};
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = Tensor::randn(&[1, 1, 6, 6], 1.0, &mut rng);
        let w = Tensor::randn(&[2, 1, 3, 3], 0.5, &mut rng);
        let zero_bias = Tensor::zeros(&[2]);
        let y1 = conv2d(&x.scale(alpha), &w, &zero_bias).unwrap();
        let y2 = conv2d(&x, &w, &zero_bias).unwrap().scale(alpha);
        for (a, b) in y1.data().iter().zip(y2.data()) {
            prop_assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }
}

/// The line-protocol codec `pipetune_tsdb` had before it scanned `&str`
/// slices in place: four `replace` passes to escape, and three levels of
/// `Vec<String>` splitting to parse. Kept verbatim as the oracle for the
/// bytes the encoder writes, the points the decoder builds and the lines it
/// rejects.
mod frozen_line_protocol {
    use pipetune_tsdb::{Point, TsdbError};

    fn escape(s: &str) -> String {
        s.replace('\\', "\\\\").replace(',', "\\,").replace(' ', "\\ ").replace('=', "\\=")
    }

    fn unescape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        let mut chars = s.chars();
        while let Some(c) = chars.next() {
            if c == '\\' {
                if let Some(n) = chars.next() {
                    out.push(n);
                }
            } else {
                out.push(c);
            }
        }
        out
    }

    /// Splits on `sep`, honouring backslash escapes.
    fn split_escaped(s: &str, sep: char) -> Vec<String> {
        let mut parts = Vec::new();
        let mut cur = String::new();
        let mut escaped = false;
        for c in s.chars() {
            if escaped {
                cur.push('\\');
                cur.push(c);
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == sep {
                parts.push(std::mem::take(&mut cur));
            } else {
                cur.push(c);
            }
        }
        if escaped {
            cur.push('\\');
        }
        parts.push(cur);
        parts
    }

    pub fn to_line_protocol(point: &Point) -> String {
        let mut line = escape(point.measurement());
        for (k, v) in point.tags() {
            line.push(',');
            line.push_str(&escape(k));
            line.push('=');
            line.push_str(&escape(v));
        }
        line.push(' ');
        let fields: Vec<String> =
            point.fields().map(|(k, v)| format!("{}={}", escape(k), v)).collect();
        line.push_str(&fields.join(","));
        line.push(' ');
        line.push_str(&point.timestamp_us().to_string());
        line
    }

    pub fn from_line_protocol(line: &str) -> Result<Point, TsdbError> {
        let corrupt = |reason: &str| TsdbError::Corrupt { reason: reason.to_string() };
        let segments = split_escaped(line.trim(), ' ');
        let (head, field_seg, ts_seg) = match segments.len() {
            3 => (&segments[0], &segments[1], Some(&segments[2])),
            2 => (&segments[0], &segments[1], None),
            _ => return Err(corrupt("expected 'measurement[,tags] fields [timestamp]'")),
        };
        let timestamp = match ts_seg {
            Some(t) => t.parse::<u64>().map_err(|_| corrupt("bad timestamp"))?,
            None => 0,
        };
        let mut head_parts = split_escaped(head, ',').into_iter();
        let measurement =
            unescape(&head_parts.next().ok_or_else(|| corrupt("missing measurement"))?);
        if measurement.is_empty() {
            return Err(corrupt("empty measurement"));
        }
        let mut point = Point::new(measurement, timestamp);
        for tag in head_parts {
            let kv = split_escaped(&tag, '=');
            if kv.len() != 2 {
                return Err(corrupt("malformed tag"));
            }
            point = point.tag(unescape(&kv[0]), unescape(&kv[1]));
        }
        if field_seg.is_empty() {
            return Err(corrupt("no fields"));
        }
        for field in split_escaped(field_seg, ',') {
            let kv = split_escaped(&field, '=');
            if kv.len() != 2 {
                return Err(corrupt("malformed field"));
            }
            // Accept Influx's integer suffix `i` as well as plain floats.
            let raw = kv[1].strip_suffix('i').unwrap_or(&kv[1]);
            let value: f64 = raw.parse().map_err(|_| corrupt("non-numeric field value"))?;
            point = point.field(unescape(&kv[0]), value);
        }
        Ok(point)
    }
}

/// Old and new decoders on one line: the same point (`Debug` text, so NaN
/// fields compare) or the same typed complaint.
fn assert_line_decodes_like_frozen(line: &str) {
    let new = format!("{:?}", Point::from_line_protocol(line));
    let old = format!("{:?}", frozen_line_protocol::from_line_protocol(line));
    assert_eq!(new, old, "decoders disagree on {line:?}");
}

#[test]
fn line_protocol_decoder_matches_the_frozen_one_on_the_corner_cases() {
    for line in [
        // Escaped separators at every level, and escapes that escape nothing.
        r"m\ x,t\,a\=g=v\ 1\,2\=3 f\ 1=1,g\,h=2,i\=j=3 7",
        r"m\\,k=v\\ f=1",
        r"m\a,k\b=\c f\d=1 5",
        r"é\ü,ключ=значение\  поле=1.5 9",
        // Trailing backslash: on the line, inside a token, before a separator.
        r"m f=1 5\",
        r"m f=1\",
        r"m\",
        r"m\ f=1",
        r"m,k=v\ f=1",
        r"m f\=1",
        // `i`-suffixed integers, and what else `str::parse::<f64>` takes.
        "m a=99i,b=-3i,c=1e3i,d=ii,e=i,f=1ii 1",
        "m a=inf,b=-inf,c=NaN,d=+1,e=.5,f=5.,g=1e400,h=infinity,i=nani 1",
        // Missing or odd timestamps.
        "m f=1",
        "m f=1 +5",
        "m f=1 -5",
        "m f=1 18446744073709551615",
        "m f=1 18446744073709551616",
        "m f=1 5 6",
        "m  f=1",
        "m f=1 ",
        " \t m f=1 5 \u{a0}\n",
        // Malformed heads and bodies.
        "",
        " ",
        "m",
        ",k=v f=1",
        "m, f=1",
        "m,k f=1",
        "m,k=v=w f=1",
        "m,=v f=1",
        "m,k= f=1",
        "m,k=1,k=2 f=1,f=2",
        "m f",
        "m f=",
        "m =1",
        "m f=1,",
        "m ,f=1",
        "m f=1,,g=2",
        "m f=x",
        "m f=1=2",
    ] {
        assert_line_decodes_like_frozen(line);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn line_protocol_decoder_matches_the_frozen_one(
        // An alphabet dense in separators, escapes and number syntax.
        line in "[am1 ,=\\\\i.eé\t-]{0,24}",
        // …and lines with the right skeleton, so many of them decode.
        head in "[am,=\\\\é]{1,8}",
        body in "[a1=,=1i.e\\\\-]{1,10}",
        tail in "[ 15\\\\]{0,4}",
    ) {
        assert_line_decodes_like_frozen(&line);
        assert_line_decodes_like_frozen(&format!("{head} {body}{tail}"));
    }

    /// ROADMAP 4b: flip, delete or duplicate bytes of valid lines — a point
    /// or a typed error, never a panic, and always the frozen decoder's
    /// answer.
    #[test]
    fn mutated_lines_decode_like_the_frozen_decoder(
        at in 0usize..1000,
        mutation in 0u32..3,
        bit in 0u32..8,
    ) {
        for line in [
            r"pipetune_span,kind=epoch,label=epoch\ 1\ (profile),phase=profile cores=8,duration_secs=11.684110339824473,epoch=1 912411197",
            r"m\ x,t\,a\=g=v\ 1\\ f\ 1=1e-7,g=99i 7",
        ] {
            let mut bytes = line.as_bytes().to_vec();
            let at = at % bytes.len();
            match mutation {
                0 => bytes[at] ^= 1 << bit,
                1 => drop(bytes.remove(at)),
                _ => bytes.insert(at, bytes[at]),
            }
            assert_line_decodes_like_frozen(&String::from_utf8_lossy(&bytes));
        }
    }

    #[test]
    fn line_protocol_encoder_matches_the_frozen_one(
        measurement in "[a-z ,=\\\\é]{0,8}",
        tag in "[a-z ,=\\\\é]{0,8}",
        field in "[a-z ,=\\\\é]{0,8}",
        value in -1e12..1e12f64,
        ts in 0u64..u64::MAX,
    ) {
        let mut point = Point::new(measurement, ts);
        for (i, special) in [f64::NAN, f64::INFINITY, -0.0, 1e300, f64::MIN_POSITIVE].iter().enumerate() {
            point = point.field(format!("{field}{i}"), *special);
        }
        let point = point.tag(tag.clone(), field.clone()).tag("k", tag).field(field, value);
        let line = point.to_line_protocol();
        prop_assert_eq!(&line, &frozen_line_protocol::to_line_protocol(&point));
        let mut appended = String::from("x\n");
        point.write_line_protocol(&mut appended);
        prop_assert_eq!(appended, format!("x\n{line}"));
        // A point without fields still renders (with an empty field segment).
        let bare = Point::new("m", ts);
        prop_assert_eq!(bare.to_line_protocol(), frozen_line_protocol::to_line_protocol(&bare));
    }
}
