//! Hostile text inputs: byte flips, truncations and line splices of the
//! text encoding of every conformance-corpus history. `codec::decode` must
//! return a history or a `ParseError` — never panic — and every history it
//! returns must go through `check` under SI and SER without panicking.

use polysi::checker::engine::{check, EngineOptions, IsolationLevel};
use polysi::dbsim::testkit::conformance_corpus;
use polysi::history::codec;

/// A splitmix64 stream: deterministic mutations without a dependency.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Bytes a flip writes: the format's own alphabet, so that most flips
/// still tokenize, plus a few that never belong.
const ALPHABET: &[u8] = b"0123456789 \n#rwsbegincomtaX-\t\0\xff";

/// One mutation of `text`: a flipped byte, a truncation, or a run of lines
/// copied elsewhere.
fn mutate(text: &str, rng: &mut Mix) -> String {
    let mut bytes = text.as_bytes().to_vec();
    match rng.below(3) {
        0 => {
            let at = rng.below(bytes.len());
            bytes[at] = ALPHABET[rng.below(ALPHABET.len())];
        }
        1 => bytes.truncate(rng.below(bytes.len())),
        _ => {
            let lines: Vec<&str> = text.lines().collect();
            let from = rng.below(lines.len());
            let to = (from + 1 + rng.below(4)).min(lines.len());
            let at = rng.below(lines.len() + 1);
            let mut spliced = lines[..at].to_vec();
            spliced.extend_from_slice(&lines[from..to]);
            spliced.extend_from_slice(&lines[at..]);
            bytes = spliced.join("\n").into_bytes();
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn mutated_text_decodes_or_errors_and_checks_without_panicking() {
    let mut rng = Mix(0x7E47_C0DE);
    let (mut parsed, mut refused) = (0usize, 0usize);
    for case in conformance_corpus(0xC0F_FEE, 1, 14) {
        let text = codec::encode(&case.history);
        for _ in 0..96 {
            let Ok(h) = codec::decode(&mutate(&text, &mut rng)) else {
                refused += 1;
                continue;
            };
            parsed += 1;
            for level in [IsolationLevel::Si, IsolationLevel::Ser] {
                check(&h, level, &EngineOptions::default());
            }
        }
    }
    // Both outcomes occur, or the suite tests only one of them.
    assert!(parsed > 100 && refused > 100, "{parsed} parsed, {refused} refused");
}
