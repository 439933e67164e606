//! Malformed job specs never panic: every input to [`JobSpec::parse`] and
//! [`parse_flat_json`] gives `Ok` or `Err`. The inputs are a valid spec cut
//! at every byte, seeded byte flips, nested values, duplicate keys and
//! hostile numbers (negative, fractional, NaN, infinite and huge). Both
//! parsers read `POST /jobs` bodies, so a panic here is a dead request
//! handler, and an abort is a dead server. A parsed spec then passes
//! [`JobSpec::validate`], which must reject a hostile grid (unknown names,
//! too many cells) without expanding it.

use moheco_bench::jobspec::{MAX_CELLS, MAX_SEED_COUNT};
use moheco_bench::results::parse_flat_json;
use moheco_bench::JobSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A valid spec with every key present, so each one gets mutated.
const VALID: &str = r#"{"schema_version": 5, "scenarios": "margin_wall,two_basin", "algos": "memetic,fixed", "budget": "tiny", "seeds": "1,2,3", "engine": "parallel", "estimator": "mc", "prescreen": "off", "engine_reuse": "shared-cache", "max_cached_blocks": 64, "schedule": "ocba"}"#;

/// Runs both parsers and fails the test, naming the input, on a panic.
fn parses_without_panic(text: &str) -> Result<JobSpec, String> {
    let outcome = std::panic::catch_unwind(|| {
        let _ = parse_flat_json(text);
        JobSpec::parse(text)
    });
    outcome.unwrap_or_else(|_| panic!("parser panicked on {text:?}"))
}

#[test]
fn truncation_at_every_byte_never_panics() {
    assert!(
        parses_without_panic(VALID).is_ok(),
        "the unmutated spec is valid"
    );
    for cut in 0..VALID.len() {
        assert!(parses_without_panic(&VALID[..cut]).is_err(), "cut at {cut}");
    }
}

#[test]
fn seeded_byte_flips_never_panic() {
    const INTERESTING: &[u8] = b"{}[],:\"\\ \n0123456789.eE+-ntf\xc3\xa9";
    let mut rng = StdRng::seed_from_u64(0x5EED_F1A9);
    for _ in 0..4000 {
        let mut bytes = VALID.as_bytes().to_vec();
        for _ in 0..rng.gen_range(1..=4usize) {
            let at = rng.gen_range(0..bytes.len());
            let byte = if rng.gen_range(0..2u32) == 0 {
                INTERESTING[rng.gen_range(0..INTERESTING.len())]
            } else {
                rng.gen_range(0..=255u8)
            };
            match rng.gen_range(0..3u32) {
                0 => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                _ => {
                    bytes.remove(at);
                }
            }
        }
        let _ = parses_without_panic(&String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn nested_values_and_duplicate_keys_are_errors() {
    for text in [
        r#"{"scenarios": {"margin_wall": 1}}"#,
        r#"{"scenarios": ["margin_wall"]}"#,
        r#"{"scenarios": "margin_wall", "seeds": [1, 2]}"#,
        r#"[{"scenarios": "margin_wall"}]"#,
        r#"{{"scenarios": "margin_wall"}}"#,
        "[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[",
        "{\"a\": {{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{",
        r#"{"scenarios": "margin_wall", "scenarios": "two_basin"}"#,
        r#"{"scenarios": "margin_wall", "seeds": 3, "seeds": "1,2"}"#,
        r#"{"scenarios": "margin_wall", "seeds": 3} {"seeds": 4}"#,
    ] {
        assert!(parses_without_panic(text).is_err(), "{text}");
    }
}

#[test]
fn hostile_numbers_never_panic_and_huge_counts_are_rejected() {
    let numbers = "-1 -0 0 0.5 1.5 3 NaN nan inf -inf infinity 1e15 1e308 1e309 -1e308 \
                   4.9e-324 18446744073709551616 100000 100001 0x10 1_000";
    for key in ["seeds", "max_cached_blocks", "schema_version", "scenarios"] {
        for n in numbers.split_whitespace() {
            let text = if key == "scenarios" {
                format!(r#"{{"scenarios": {n}}}"#)
            } else {
                format!(r#"{{"scenarios": "margin_wall", "{key}": {n}}}"#)
            };
            let parsed = parses_without_panic(&text);
            if let Ok(spec) = &parsed {
                assert!(spec.seeds.len() as u64 <= MAX_SEED_COUNT, "{text}");
            }
        }
    }
    for n in ["1e15", "1e308", "inf", "NaN", "-1", "0.5", "100001"] {
        let text = format!(r#"{{"scenarios": "margin_wall", "seeds": {n}}}"#);
        assert!(parses_without_panic(&text).is_err(), "{text}");
    }
}

/// Parses `text` and validates it, timing both. `validate` runs in the
/// `POST /jobs` handler, so it must reject a hostile grid in time linear in
/// the body, before anything per cell is built.
fn parse_and_validate(text: &str) -> (Result<(), String>, std::time::Duration) {
    let start = std::time::Instant::now();
    let outcome = parses_without_panic(text).and_then(|spec| spec.validate());
    (outcome, start.elapsed())
}

#[test]
fn many_unknown_names_over_a_huge_grid_are_rejected_quickly() {
    let names: Vec<String> = (0..50).map(|i| format!("s{i}")).collect();
    let text = format!(
        r#"{{"scenarios": "{}", "algos": "fixed,memetic,two-stage", "seeds": {MAX_SEED_COUNT}}}"#,
        names.join(",")
    );
    let (outcome, elapsed) = parse_and_validate(&text);
    let err = outcome.expect_err("unknown scenarios");
    assert!(err.contains("unknown scenario \"s0\""), "{err}");
    // Expanding a grid this size (15M cells) up front took tens of seconds.
    assert!(elapsed.as_secs_f64() < 5.0, "took {elapsed:?}");
}

#[test]
fn grids_over_the_cell_cap_are_rejected() {
    let text = format!(
        r#"{{"scenarios": "margin_wall,two_basin", "algos": "fixed,memetic", "seeds": {MAX_SEED_COUNT}}}"#
    );
    let (outcome, elapsed) = parse_and_validate(&text);
    let err = outcome.expect_err("over the cell cap");
    assert!(err.contains(&MAX_CELLS.to_string()), "{err}");
    assert!(elapsed.as_secs_f64() < 5.0, "took {elapsed:?}");
    // One scenario and one algorithm at the seed cap is the largest grid.
    let at_cap = format!(r#"{{"scenarios": "margin_wall", "seeds": {MAX_SEED_COUNT}}}"#);
    assert_eq!(parse_and_validate(&at_cap).0, Ok(()));
}
