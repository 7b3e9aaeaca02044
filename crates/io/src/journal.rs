//! `ocr-journal-v1` — append-only framed record log underneath the
//! batch service's write-ahead job journal.
//!
//! This layer is framing, not semantics: it turns opaque one-line
//! payloads into self-checking records and replays them tolerantly.
//! What the payloads *mean* (job state transitions) lives in
//! `ocr-serve`.
//!
//! ```text
//! ocr-journal-v1
//! r 14 0a6d266c21936eb7 accept 0 ami33
//! r 7 af63bd4c8601b7f4 start 0
//! ```
//!
//! Each record line is `r <len> <fnv64hex> <payload>`: the payload's
//! byte length, its FNV-1a 64 checksum as 16 hex digits, then the
//! payload itself to end of line. The header is the wire's frame header
//! with tag `r`, rendered and parsed by the same codec. A replay accepts exactly the prefix
//! of records whose framing checks out; the first torn or
//! checksum-bad line ends the replay with a typed [`JournalWarning`]
//! — never a panic — and [`JournalReplay::valid_len`] reports the
//! byte offset of the last good record, so a writer can truncate the
//! damaged tail and keep appending.

use crate::ckpt::fnv1a_64;
use crate::wire::{frame_header, one_line, parse_frame_header};
use std::fmt;

/// Magic first line of an `ocr-journal-v1` file.
pub const JOURNAL_MAGIC: &str = "ocr-journal-v1";

/// A tolerated replay defect: everything from `line` on was dropped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalWarning {
    /// 1-based line number where the replay stopped.
    pub line: usize,
    /// What was wrong with that line.
    pub message: String,
}

impl fmt::Display for JournalWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "journal line {}: {}", self.line, self.message)
    }
}

/// What a tolerant [`replay_journal`] recovered.
#[derive(Clone, Debug)]
pub struct JournalReplay {
    /// Good payloads with their 1-based line numbers, in file order.
    pub records: Vec<(usize, String)>,
    /// Byte length of the valid prefix (magic plus good records); a
    /// writer truncates the file here before appending.
    pub valid_len: u64,
    /// Why the replay stopped early, if it did.
    pub warning: Option<JournalWarning>,
}

/// Frames one payload as a record line, trailing newline included.
/// Control characters in the payload (which would tear the
/// line-oriented framing) are collapsed to spaces before the length
/// and checksum are computed, so whatever is written always replays.
pub fn frame_record(payload: &str) -> String {
    let clean = one_line(payload);
    format!("{} {clean}\n", frame_header('r', clean.as_bytes()))
}

fn parse_record(line: &str) -> Result<&str, String> {
    let (header, payload) = line
        .match_indices(' ')
        .nth(2)
        .map(|(at, _)| (&line[..at], &line[at + 1..]))
        .ok_or_else(|| "missing payload".to_string())?;
    let (len, sum) = parse_frame_header('r', header)?;
    if payload.len() as u64 != len {
        return Err(format!(
            "length mismatch: header says {len}, payload is {} byte(s)",
            payload.len()
        ));
    }
    if fnv1a_64(payload) != sum {
        return Err("checksum mismatch".to_string());
    }
    Ok(payload)
}

/// Replays a journal file tolerantly. The valid prefix — the magic
/// line followed by consecutive well-framed records — is returned;
/// the first torn, checksum-bad, or otherwise unparseable line stops
/// the replay with a warning and everything after it is dropped. A
/// file that does not even start with the magic line replays as empty
/// (with a warning), so the caller can reset it. Never panics.
pub fn replay_journal(bytes: &[u8]) -> JournalReplay {
    let (text, utf8_torn) = match std::str::from_utf8(bytes) {
        Ok(text) => (text, false),
        Err(e) => {
            let text = std::str::from_utf8(&bytes[..e.valid_up_to()]).unwrap_or("");
            (text, true)
        }
    };
    let mut records = Vec::new();
    let mut valid_len = 0u64;
    let mut warning = None;
    let mut line_no = 0usize;
    let mut saw_magic = false;
    let mut offset = 0usize;
    for chunk in text.split_inclusive('\n') {
        line_no += 1;
        let Some(line) = chunk.strip_suffix('\n') else {
            warning = Some(JournalWarning {
                line: line_no,
                message: "torn final record (no newline)".to_string(),
            });
            break;
        };
        if !saw_magic {
            if line == JOURNAL_MAGIC {
                saw_magic = true;
                offset += chunk.len();
                valid_len = offset as u64;
                continue;
            }
            warning = Some(JournalWarning {
                line: line_no,
                message: format!("not an {JOURNAL_MAGIC} file"),
            });
            break;
        }
        match parse_record(line) {
            Ok(payload) => {
                records.push((line_no, payload.to_string()));
                offset += chunk.len();
                valid_len = offset as u64;
            }
            Err(message) => {
                warning = Some(JournalWarning {
                    line: line_no,
                    message,
                });
                break;
            }
        }
    }
    if utf8_torn && warning.is_none() {
        warning = Some(JournalWarning {
            line: line_no + 1,
            message: "torn final record (invalid UTF-8 tail)".to_string(),
        });
    }
    JournalReplay {
        records,
        valid_len,
        warning,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journal(payloads: &[&str]) -> String {
        let mut text = format!("{JOURNAL_MAGIC}\n");
        for p in payloads {
            text.push_str(&frame_record(p));
        }
        text
    }

    #[test]
    fn round_trips_records() {
        let text = journal(&["accept 0 ami33", "start 0", "end 0 done steps 41"]);
        let replay = replay_journal(text.as_bytes());
        assert!(replay.warning.is_none(), "{:?}", replay.warning);
        assert_eq!(replay.valid_len, text.len() as u64);
        let payloads: Vec<&str> = replay.records.iter().map(|(_, p)| p.as_str()).collect();
        assert_eq!(
            payloads,
            ["accept 0 ami33", "start 0", "end 0 done steps 41"]
        );
        assert_eq!(replay.records[0].0, 2, "records are 1-based line numbers");
    }

    #[test]
    fn empty_file_replays_fresh_without_warning() {
        let replay = replay_journal(b"");
        assert!(replay.records.is_empty());
        assert_eq!(replay.valid_len, 0);
        assert!(replay.warning.is_none());
    }

    #[test]
    fn control_characters_in_payload_are_collapsed() {
        let framed = frame_record("detail torn\nhalf\tline");
        assert_eq!(framed.matches('\n').count(), 1, "{framed:?}");
        let text = format!("{JOURNAL_MAGIC}\n{framed}");
        let replay = replay_journal(text.as_bytes());
        assert!(replay.warning.is_none(), "{:?}", replay.warning);
        assert_eq!(replay.records[0].1, "detail torn half line");
    }

    #[test]
    fn truncation_at_every_byte_never_panics_and_keeps_a_prefix() {
        let text = journal(&["accept 0 ami33", "start 0", "preempt 0 steps 64"]);
        let bytes = text.as_bytes();
        let full = replay_journal(bytes).records.len();
        for cut in 0..bytes.len() {
            let replay = replay_journal(&bytes[cut..cut]); // empty slice sanity
            assert!(replay.records.is_empty());
            let replay = replay_journal(&bytes[..cut]);
            assert!(replay.records.len() <= full);
            assert!(replay.valid_len <= cut as u64);
            if cut < bytes.len() {
                // Anything short of the full file loses at least the
                // torn tail and must say so (except a cut exactly at a
                // record boundary, which is silently shorter).
                let at_boundary = replay.valid_len == cut as u64;
                assert!(replay.warning.is_some() || at_boundary, "cut at {cut}");
            }
        }
    }

    #[test]
    fn corrupt_byte_stops_replay_with_typed_warning() {
        let text = journal(&["accept 0 ami33", "start 0"]);
        // Flip one payload byte of the second record.
        let corrupted = text.replace("start 0", "stArt 0");
        let replay = replay_journal(corrupted.as_bytes());
        assert_eq!(replay.records.len(), 1);
        let warning = replay.warning.expect("corruption is reported");
        assert_eq!(warning.line, 3);
        assert!(warning.message.contains("checksum"), "{warning}");
    }

    #[test]
    fn wrong_magic_replays_empty_with_warning() {
        let replay = replay_journal(b"ocr-results-v1\nwhatever\n");
        assert!(replay.records.is_empty());
        assert_eq!(replay.valid_len, 0);
        let warning = replay.warning.expect("bad magic is reported");
        assert!(warning.message.contains(JOURNAL_MAGIC), "{warning}");
    }

    #[test]
    fn invalid_utf8_tail_is_a_torn_record() {
        let mut bytes = journal(&["accept 0 ami33"]).into_bytes();
        bytes.extend_from_slice(&[b'r', b' ', 0xff, 0xfe]);
        let replay = replay_journal(&bytes);
        assert_eq!(replay.records.len(), 1);
        let warning = replay.warning.expect("utf-8 tear is reported");
        assert!(warning.message.contains("torn"), "{warning}");
    }

    #[test]
    fn appending_after_truncation_to_valid_len_replays_cleanly() {
        let text = journal(&["accept 0 ami33", "start 0"]);
        // Simulate a torn append, then the writer's truncate-and-retry.
        let mut torn = text.clone();
        torn.push_str("r 9 0123456789abcdef pre");
        let replay = replay_journal(torn.as_bytes());
        assert!(replay.warning.is_some());
        let mut healed = torn.as_bytes()[..replay.valid_len as usize].to_vec();
        healed.extend_from_slice(frame_record("preempt 0 steps 64").as_bytes());
        let replay = replay_journal(&healed);
        assert!(replay.warning.is_none(), "{:?}", replay.warning);
        assert_eq!(replay.records.len(), 3);
    }
}
