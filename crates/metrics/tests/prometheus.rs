//! Exposition-format coverage (ISSUE 3 satellite): label escaping,
//! stable series ordering, histogram `le` bucket edges and
//! `+Inf`/`_sum`/`_count` invariants, and a render → parse round-trip.

use db_metrics::{parse_exposition, validate_exposition, Registry, HISTOGRAM_BUCKETS};

#[test]
fn label_values_are_escaped_and_round_trip() {
    let reg = Registry::new();
    let c = reg.counter(
        "db_test_escapes_total",
        "escape coverage",
        &[("path", "a\\b"), ("msg", "say \"hi\"\nbye")],
    );
    c.add(7);

    let text = reg.render_prometheus();
    // The raw text must contain the escaped forms...
    assert!(text.contains(r#"path="a\\b""#), "{text}");
    assert!(text.contains(r#"msg="say \"hi\"\nbye""#), "{text}");

    // ...and parsing must resolve them back to the originals.
    let exp = validate_exposition(&text).expect("rendered text must validate");
    let s = &exp.samples[0];
    assert_eq!(s.label("path"), Some("a\\b"));
    assert_eq!(s.label("msg"), Some("say \"hi\"\nbye"));
    assert_eq!(s.value, 7.0);
}

#[test]
fn series_ordering_is_stable_regardless_of_registration_order() {
    // Register in one order...
    let a = Registry::new();
    a.counter("db_test_z_total", "", &[]).inc();
    a.counter("db_test_a_total", "", &[("k", "2")]).inc();
    a.counter("db_test_a_total", "", &[("k", "1")]).inc();
    a.gauge("db_test_m", "", &[]).set(5);

    // ...and the reverse order.
    let b = Registry::new();
    b.gauge("db_test_m", "", &[]).set(5);
    b.counter("db_test_a_total", "", &[("k", "1")]).inc();
    b.counter("db_test_a_total", "", &[("k", "2")]).inc();
    b.counter("db_test_z_total", "", &[]).inc();

    assert_eq!(a.render_prometheus(), b.render_prometheus());

    // And the order is sorted by (name, labels).
    let exp = parse_exposition(&a.render_prometheus()).unwrap();
    let names: Vec<_> = exp
        .samples
        .iter()
        .map(|s| (s.name.clone(), s.labels.clone()))
        .collect();
    let mut sorted = names.clone();
    sorted.sort();
    assert_eq!(names, sorted);
}

#[test]
fn histogram_le_edges_are_power_of_two_upper_bounds() {
    let reg = Registry::new();
    let h = reg.histogram("db_test_lat", "latency", &[]);
    // Bucket i holds values in [2^(i-1), 2^i), so its inclusive upper
    // edge is 2^i - 1. Values 1 and 2 land in different buckets.
    h.observe(0);
    h.observe(1);
    h.observe(2);
    h.observe(1000);

    let text = reg.render_prometheus();
    let exp = validate_exposition(&text).unwrap();

    let buckets: Vec<_> = exp
        .samples
        .iter()
        .filter(|s| s.name == "db_test_lat_bucket")
        .collect();
    assert_eq!(
        buckets.len(),
        HISTOGRAM_BUCKETS,
        "one line per bucket + +Inf"
    );

    // First finite edges: 2^0-1=0, 2^1-1=1, 2^2-1=3, ...
    assert_eq!(buckets[0].label("le"), Some("0"));
    assert_eq!(buckets[1].label("le"), Some("1"));
    assert_eq!(buckets[2].label("le"), Some("3"));
    assert_eq!(buckets[3].label("le"), Some("7"));
    assert_eq!(buckets.last().unwrap().label("le"), Some("+Inf"));

    // Cumulative counts: le=0 sees {0}; le=1 sees {0,1}; le=3 sees {0,1,2}.
    assert_eq!(buckets[0].value, 1.0);
    assert_eq!(buckets[1].value, 2.0);
    assert_eq!(buckets[2].value, 3.0);
    assert_eq!(buckets.last().unwrap().value, 4.0);
}

#[test]
fn histogram_inf_sum_count_invariants() {
    let reg = Registry::new();
    let h = reg.histogram("db_test_h", "", &[("engine", "sim")]);
    for v in [3u64, 9, 27, 81, 243] {
        h.observe(v);
    }

    let text = reg.render_prometheus();
    let exp = validate_exposition(&text).expect("invariants must hold");

    let find = |name: &str| {
        exp.samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("missing {name}"))
    };
    let inf = exp
        .samples
        .iter()
        .find(|s| s.name == "db_test_h_bucket" && s.label("le") == Some("+Inf"))
        .expect("missing +Inf bucket");
    assert_eq!(inf.value, 5.0);
    assert_eq!(find("db_test_h_count").value, 5.0);
    assert_eq!(find("db_test_h_sum").value, (3 + 9 + 27 + 81 + 243) as f64);
    // Labels propagate to every sample of the family.
    assert_eq!(inf.label("engine"), Some("sim"));
    assert_eq!(find("db_test_h_sum").label("engine"), Some("sim"));
}

#[test]
fn full_registry_round_trips_through_the_parser() {
    let reg = Registry::new();
    reg.counter("db_test_steals_total", "steals", &[("level", "intra")])
        .add(41);
    reg.counter("db_test_steals_total", "steals", &[("level", "inter")])
        .add(8);
    reg.gauge("db_test_depth", "queue depth", &[]).set(3);
    let h = reg.histogram("db_test_us", "latency", &[]);
    for v in [5u64, 50, 500, 5000] {
        h.observe(v);
    }

    let text = reg.render_prometheus();
    let exp = validate_exposition(&text).expect("must validate");

    // TYPE declarations survive.
    assert_eq!(
        exp.types.get("db_test_steals_total").map(String::as_str),
        Some("counter")
    );
    assert_eq!(
        exp.types.get("db_test_depth").map(String::as_str),
        Some("gauge")
    );
    assert_eq!(
        exp.types.get("db_test_us").map(String::as_str),
        Some("histogram")
    );

    // Values survive.
    let intra = exp
        .samples
        .iter()
        .find(|s| s.name == "db_test_steals_total" && s.label("level") == Some("intra"))
        .unwrap();
    assert_eq!(intra.value, 41.0);
    let count = exp
        .samples
        .iter()
        .find(|s| s.name == "db_test_us_count")
        .unwrap();
    assert_eq!(count.value, 4.0);

    // Rendering the parse-source again is byte-identical (determinism).
    assert_eq!(text, reg.render_prometheus());
}

#[test]
fn series_registered_out_of_name_order_render_sorted_and_valid() {
    let reg = Registry::new();
    reg.counter("db_test_zz_total", "", &[]).inc();
    reg.counter("db_test_aa_total", "", &[]).inc();

    let text = reg.render_prometheus();
    let exp = validate_exposition(&text).unwrap();
    let names: Vec<_> = exp.samples.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["db_test_aa_total", "db_test_zz_total"]);
}
