//! Parser hardening: arbitrary and corrupted inputs must produce
//! errors, never panics, and valid inputs must be insensitive to
//! whitespace/comment noise.

use ovlp_trace::record::{Record, SendMode};
use ovlp_trace::{text, Bytes, Instructions, Rank, Tag, Trace, TransferId};

fn valid_trace_text() -> String {
    let mut t = Trace::new(2).with_meta("app", "fuzz");
    t.rank_mut(Rank(0)).push(Record::Compute {
        instr: Instructions(100),
    });
    t.rank_mut(Rank(0)).push(Record::Send {
        dst: Rank(1),
        tag: Tag::user(3),
        bytes: Bytes(64),
        mode: SendMode::Eager,
        transfer: TransferId::new(Rank(0), 0),
    });
    t.rank_mut(Rank(1)).push(Record::Recv {
        src: Rank(0),
        tag: Tag::user(3),
        bytes: Bytes(64),
        transfer: TransferId::new(Rank(1), 0),
    });
    text::emit(&t)
}

/// Fuzz-style properties; off by default, run with
/// `cargo test --features proptest-tests`.
#[cfg(feature = "proptest-tests")]
mod fuzzing {
    use super::*;
    use ovlp_trace::access_text;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn trace_parser_never_panics_on_arbitrary_input(s in ".{0,400}") {
            let _ = text::parse(&s); // Ok or Err, never panic
        }

        #[test]
        fn access_parser_never_panics_on_arbitrary_input(s in ".{0,400}") {
            let _ = access_text::parse(s.as_bytes());
        }

        #[test]
        fn trace_parser_survives_random_line_corruption(
            line_idx in 0usize..12,
            junk in "[ -~]{0,40}",
        ) {
            let valid = valid_trace_text();
            let mut lines: Vec<String> = valid.lines().map(String::from).collect();
            let i = line_idx % lines.len();
            lines[i] = junk;
            let corrupted = lines.join("\n");
            // must terminate with Ok or Err (often Err); never panic
            let _ = text::parse(&corrupted);
        }

        #[test]
        fn trace_parser_survives_truncation(cut in 0usize..200) {
            let valid = valid_trace_text();
            let cut = cut.min(valid.len());
            // truncate at a char boundary (ASCII format, always is)
            let _ = text::parse(&valid[..cut]);
        }
    }
}

#[test]
fn whitespace_and_comment_noise_is_tolerated() {
    let valid = valid_trace_text();
    let noisy: String = valid
        .lines()
        .flat_map(|l| [format!("  {l}  "), "# noise".to_string(), String::new()])
        .collect::<Vec<_>>()
        .join("\n");
    let a = text::parse(&valid).unwrap();
    let b = text::parse(&noisy).unwrap();
    assert_eq!(a, b);
}

#[test]
fn huge_numbers_are_rejected_not_wrapped() {
    let txt = "#OVLP-TRACE 1\nranks 1\nrank 0\nc 999999999999999999999999999\nend\n";
    assert!(text::parse(txt).is_err());
}

#[test]
fn negative_numbers_are_rejected() {
    let txt = "#OVLP-TRACE 1\nranks 1\nrank 0\nc -5\nend\n";
    assert!(text::parse(txt).is_err());
}
