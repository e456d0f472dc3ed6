//! Compact, stable text encoding of action traces.
//!
//! Counterexamples cross three boundaries that all need the same
//! serialized form: sweep cache records on disk, the replay command
//! line a failing sweep prints, and the `gwcheck --replay` entry point
//! that consumes it. One token per action, comma-joined:
//!
//! ```text
//! i0:1s      core 0 issues Store on block 1
//! i2:0l1     core 2 issues Load{writer:1} on block 0
//! i1:0g4     core 1 issues Scribble{d:4} on block 0
//! d3>5       deliver head of the (3, 5) channel (node keys)
//! t0         fire core 0's GI-timeout sweep
//! x3>5       drop the head of the (3, 5) channel (bounded-fault mode)
//! u3>5       duplicate the head of the (3, 5) channel
//! c3>5       mark the head of the (3, 5) channel corrupt
//! r0         fire core 0's retry timeout
//! ```
//!
//! The encoding is injective and [`decode_trace`] is its strict
//! inverse; round-tripping is asserted by tests here and exercised
//! end-to-end by the replay-command integration test.

use ghostwriter_core::harness::Op;

use crate::{Action, Step};

/// Encodes one action as its token.
pub fn encode_action(action: Action) -> String {
    match action {
        Action::Issue { core, step } => {
            let op = match step.op {
                Op::Store => "s".to_string(),
                Op::Load { writer } => format!("l{writer}"),
                Op::Scribble { d } => format!("g{d}"),
            };
            format!("i{core}:{}{op}", step.block)
        }
        Action::Deliver { src, dst } => format!("d{src}>{dst}"),
        Action::GiTimeout { core } => format!("t{core}"),
        Action::Drop { src, dst } => format!("x{src}>{dst}"),
        Action::Duplicate { src, dst } => format!("u{src}>{dst}"),
        Action::Corrupt { src, dst } => format!("c{src}>{dst}"),
        Action::Retry { core } => format!("r{core}"),
    }
}

/// Encodes a trace as comma-joined tokens.
pub fn encode_trace(trace: &[Action]) -> String {
    trace
        .iter()
        .map(|&a| encode_action(a))
        .collect::<Vec<_>>()
        .join(",")
}

fn parse_usize(s: &str) -> Option<usize> {
    if s.is_empty() {
        return None;
    }
    s.parse().ok()
}

/// Decodes one token. Returns `None` on any malformed input.
pub fn decode_action(token: &str) -> Option<Action> {
    let (kind, rest) = token.split_at(token.char_indices().nth(1)?.0);
    match kind {
        "i" => {
            let (core, step) = rest.split_once(':')?;
            let core = parse_usize(core)?;
            // The block number is the leading digit run of the step.
            let split = step.find(|c: char| !c.is_ascii_digit())?;
            let block = parse_usize(&step[..split])?;
            let op_text = &step[split..];
            let op = match op_text.split_at(1) {
                ("s", "") => Op::Store,
                ("l", writer) => Op::Load {
                    writer: parse_usize(writer)?,
                },
                ("g", d) => Op::Scribble {
                    d: parse_usize(d)?.try_into().ok()?,
                },
                _ => return None,
            };
            Some(Action::Issue {
                core,
                step: Step { block, op },
            })
        }
        "d" | "x" | "u" | "c" => {
            let (src, dst) = rest.split_once('>')?;
            let src = parse_usize(src)?;
            let dst = parse_usize(dst)?;
            Some(match kind {
                "d" => Action::Deliver { src, dst },
                "x" => Action::Drop { src, dst },
                "u" => Action::Duplicate { src, dst },
                _ => Action::Corrupt { src, dst },
            })
        }
        "t" => Some(Action::GiTimeout {
            core: parse_usize(rest)?,
        }),
        "r" => Some(Action::Retry {
            core: parse_usize(rest)?,
        }),
        _ => None,
    }
}

/// Decodes a comma-joined trace; `None` if any token is malformed.
/// The empty string decodes to the empty trace.
pub fn decode_trace(text: &str) -> Option<Vec<Action>> {
    if text.is_empty() {
        return Some(Vec::new());
    }
    text.split(',').map(decode_action).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_actions() -> Vec<Action> {
        vec![
            Action::Issue {
                core: 0,
                step: Step {
                    block: 1,
                    op: Op::Store,
                },
            },
            Action::Issue {
                core: 2,
                step: Step {
                    block: 0,
                    op: Op::Load { writer: 1 },
                },
            },
            Action::Issue {
                core: 1,
                step: Step {
                    block: 12,
                    op: Op::Scribble { d: 4 },
                },
            },
            Action::Deliver { src: 3, dst: 5 },
            Action::Deliver { src: 10, dst: 0 },
            Action::GiTimeout { core: 7 },
            Action::Drop { src: 0, dst: 2 },
            Action::Duplicate { src: 2, dst: 0 },
            Action::Corrupt { src: 4, dst: 1 },
            Action::Retry { core: 1 },
        ]
    }

    #[test]
    fn round_trips_every_action_kind() {
        let actions = sample_actions();
        let text = encode_trace(&actions);
        assert_eq!(text, "i0:1s,i2:0l1,i1:12g4,d3>5,d10>0,t7,x0>2,u2>0,c4>1,r1");
        assert_eq!(decode_trace(&text), Some(actions));
    }

    #[test]
    fn empty_trace_round_trips() {
        assert_eq!(encode_trace(&[]), "");
        assert_eq!(decode_trace(""), Some(Vec::new()));
    }

    #[test]
    fn malformed_tokens_are_rejected() {
        for bad in [
            "x0",
            "i0",
            "i0:",
            "i0:s",
            "i0:1",
            "i0:1q",
            "i0:1l",
            "d3",
            "d3>",
            "d>5",
            "x3",
            "u3>",
            "c>5",
            "t",
            "r",
            "q0",
            "i0:1s,",
            ",",
            "i0:1s,,d0>1",
        ] {
            assert!(decode_trace(bad).is_none(), "accepted malformed {bad:?}");
        }
    }
}
