//! Property tests for the `EVWL` binary ledger wire format (ISSUE 7).
//!
//! Two families of properties:
//!
//! * **Round trip** — for *arbitrary* event streams (every variant, every
//!   field drawn from a strategy that covers empty/unicode/word-salad
//!   strings and sign/magnitude-extreme floats), encode → decode is the
//!   identity under both encodings, and [`LedgerEncoding::detect`] sniffs
//!   the encoding correctly.
//! * **Tamper refusal** — on a *real* recorded campaign's binary ledger,
//!   any single flipped bit and any truncation is refused by the decoder;
//!   corruption never replays as silently different history.
//! * **Arbitrary bytes** — every binary decoder entry point refuses
//!   random bytes, and random bytes behind a valid `EVWL` envelope whose
//!   header (or container section) CRC is correct, with a typed error and
//!   no panic; random record bodies inside correctly framed, correctly
//!   checksummed segments never panic the decoder or the replay fold.

use evoflow_core::{
    replay_fleet_ledger_bytes, replay_ledger_bytes, run_campaign_recorded, CampaignConfig,
    CampaignEvent, CampaignLedger, Cell, FleetLedger, FleetLedgerCheckpoint, LedgerEncoding,
    MaterialsSpace, RejectReason, ServiceCheckpoint,
};
use evoflow_sim::{SimDuration, SimTime};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Floats that are JSON-safe (finite) but cover zero, both signs, huge
/// and tiny magnitudes — bit-exactness is asserted via `PartialEq`.
fn arb_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(f64::MAX),
        Just(f64::MIN_POSITIVE),
        any::<i64>().prop_map(|v| v as f64 * 1e-6),
    ]
}

/// Strings exercising every text path: empty, spaced soup (double
/// spaces, leading/trailing spaces — the literal fallback), unicode,
/// and long single-space word joins (the tokenized path).
fn arb_text() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        "[a-z ]{0,40}",
        " [a-z]{4,30} ",
        "[αβγ語x-z]{0,12}",
        collection::vec("[a-z]{1,8}", 2..24).prop_map(|words| words.join(" ")),
    ]
}

fn arb_opt_usize() -> impl Strategy<Value = Option<usize>> {
    (any::<bool>(), any::<usize>()).prop_map(|(some, v)| some.then_some(v))
}

fn arb_opt_f64() -> impl Strategy<Value = Option<f64>> {
    (any::<bool>(), arb_f64()).prop_map(|(some, v)| some.then_some(v))
}

fn arb_reason() -> impl Strategy<Value = RejectReason> {
    prop_oneof![
        Just(RejectReason::UnknownTenant),
        Just(RejectReason::QueueFull),
        Just(RejectReason::AdmissionCapExhausted),
    ]
}

fn arb_event() -> impl Strategy<Value = CampaignEvent> {
    prop_oneof![
        (
            (arb_text(), any::<u64>(), arb_text(), 0usize..64),
            (any::<u64>(), arb_f64(), any::<u64>(), any::<bool>()),
        )
            .prop_map(
                |(
                    (cell_label, seed, planner, lanes),
                    (horizon, threshold, max_experiments, records_knowledge),
                )| {
                    CampaignEvent::CampaignStarted {
                        cell_label: cell_label.into(),
                        seed,
                        planner: planner.into(),
                        lanes,
                        horizon: SimDuration::from_nanos(horizon),
                        threshold,
                        max_experiments,
                        records_knowledge,
                    }
                }
            ),
        (any::<usize>(), any::<u64>(), any::<u64>()).prop_map(|(lane, at, ready)| {
            CampaignEvent::IterationStarted {
                lane,
                at: SimTime::from_nanos(at),
                decision_ready: SimTime::from_nanos(ready),
            }
        }),
        (
            any::<usize>(),
            collection::vec(arb_f64(), 0..8),
            arb_text(),
            arb_f64(),
            any::<bool>(),
        )
            .prop_map(|(lane, params, rationale, confidence, hallucinated)| {
                CampaignEvent::CandidateProposed {
                    lane,
                    params,
                    rationale: rationale.into(),
                    confidence,
                    hallucinated,
                }
            }),
        (any::<usize>(), any::<usize>(), any::<u64>(), any::<u64>()).prop_map(
            |(lane, batch, duration, done_at)| CampaignEvent::ExecutionScheduled {
                lane,
                batch,
                duration: SimDuration::from_nanos(duration),
                done_at: SimTime::from_nanos(done_at),
            }
        ),
        (
            (any::<usize>(), any::<u64>(), arb_f64(), any::<bool>()),
            (arb_opt_usize(), any::<u64>(), any::<u64>()),
        )
            .prop_map(
                |((lane, experiment, score, hit), (peak, tokens_in, tokens_out))| {
                    CampaignEvent::ResultObserved {
                        lane,
                        experiment,
                        score,
                        hit,
                        peak,
                        tokens_in,
                        tokens_out,
                    }
                }
            ),
        (any::<usize>(), any::<u64>()).prop_map(|(lane, rejected_total)| {
            CampaignEvent::GateDecision {
                lane,
                rejected_total,
            }
        }),
        (any::<usize>(), any::<u32>()).prop_map(|(lane, rewrites_total)| {
            CampaignEvent::OmegaRewrite {
                lane,
                rewrites_total,
            }
        }),
        (any::<usize>(), any::<usize>(), any::<u64>(), any::<u64>()).prop_map(
            |(lane, proposed, hits, tokens_total)| CampaignEvent::IterationEnded {
                lane,
                proposed,
                hits,
                tokens_total,
            }
        ),
        (
            (
                any::<u64>(),
                any::<u64>(),
                any::<usize>(),
                arb_f64(),
                arb_opt_f64(),
                arb_f64(),
            ),
            (
                arb_f64(),
                any::<u64>(),
                any::<u32>(),
                any::<usize>(),
                any::<usize>(),
                any::<u64>(),
            ),
        )
            .prop_map(
                |(
                    (experiments, total_hits, distinct, best_score, ttf, wait),
                    (exec, rejected, omega, kg, prov, tokens),
                )| {
                    CampaignEvent::CampaignFinished {
                        experiments,
                        total_hits,
                        distinct_discoveries: distinct,
                        best_score,
                        time_to_first_hours: ttf,
                        decision_wait_hours: wait,
                        execution_hours: exec,
                        rejected_proposals: rejected,
                        omega_rewrites: omega,
                        kg_nodes: kg,
                        prov_activities: prov,
                        tokens,
                    }
                }
            ),
        (any::<usize>(), any::<usize>())
            .prop_map(|(committed, total)| { CampaignEvent::CheckpointTaken { committed, total } }),
        any::<usize>().prop_map(|after_commits| CampaignEvent::CoordinatorKilled { after_commits }),
        (
            any::<usize>(),
            arb_text(),
            any::<u64>(),
            any::<u64>(),
            any::<bool>(),
        )
            .prop_map(|(campaign, facility, nodes, arrival, evacuation)| {
                CampaignEvent::CampaignPlaced {
                    campaign,
                    facility: facility.into(),
                    nodes,
                    arrival: SimTime::from_nanos(arrival),
                    evacuation,
                }
            }),
        (
            any::<usize>(),
            arb_text(),
            arb_text(),
            arb_f64(),
            any::<u64>(),
            any::<bool>(),
        )
            .prop_map(|(campaign, from, to, gigabytes, duration, evacuation)| {
                CampaignEvent::DataTransferred {
                    campaign,
                    from: from.into(),
                    to: to.into(),
                    gigabytes,
                    duration: SimDuration::from_nanos(duration),
                    evacuation,
                }
            }),
        (arb_text(), any::<u64>(), any::<usize>()).prop_map(|(site, at, rerouted)| {
            CampaignEvent::OutageStruck {
                site: site.into(),
                at: SimTime::from_nanos(at),
                rerouted,
            }
        }),
        (arb_text(), any::<usize>(), any::<usize>()).prop_map(
            |(tenant, admission_index, round)| CampaignEvent::SubmissionAdmitted {
                tenant: tenant.into(),
                admission_index,
                round,
            }
        ),
        (arb_text(), any::<usize>(), any::<usize>(), arb_reason()).prop_map(
            |(tenant, submission_index, round, reason)| CampaignEvent::SubmissionRejected {
                tenant: tenant.into(),
                submission_index,
                round,
                reason,
            }
        ),
        (arb_text(), any::<usize>(), any::<usize>(), any::<usize>()).prop_map(
            |(tenant, admission_index, round, slot)| CampaignEvent::CampaignDispatched {
                tenant: tenant.into(),
                admission_index,
                round,
                slot,
            }
        ),
    ]
}

/// One real recorded campaign's binary ledger (recorded once; the tamper
/// properties vary the corruption, not the run).
fn recorded_binary() -> &'static Vec<u8> {
    static BIN: OnceLock<Vec<u8>> = OnceLock::new();
    BIN.get_or_init(|| {
        let space = MaterialsSpace::generate(3, 8, 777);
        let mut cfg = CampaignConfig::for_cell(Cell::autonomous_science(), 5);
        cfg.horizon = SimDuration::from_days(1);
        let (_, ledger) = run_campaign_recorded(&space, &cfg);
        assert!(ledger.len() > 8, "stream too short to exercise segments");
        ledger.to_bytes(LedgerEncoding::Binary)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Binary encode → decode is the identity on arbitrary event
    /// streams, and the encoding sniffs as binary.
    #[test]
    fn binary_round_trips_arbitrary_streams(
        events in collection::vec(arb_event(), 0..300)
    ) {
        let mut ledger = CampaignLedger::new();
        ledger.events = events;
        let bytes = ledger.to_bytes(LedgerEncoding::Binary);
        prop_assert_eq!(LedgerEncoding::detect(&bytes), LedgerEncoding::Binary);
        let decoded = CampaignLedger::from_bytes(&bytes).expect("own bytes decode");
        prop_assert_eq!(decoded.events, ledger.events);
    }

    /// The legacy JSON path round-trips the same arbitrary streams and
    /// sniffs as JSON — the encodings never shadow each other.
    #[test]
    fn json_round_trips_arbitrary_streams(
        events in collection::vec(arb_event(), 0..60)
    ) {
        let mut ledger = CampaignLedger::new();
        ledger.events = events;
        let bytes = ledger.to_bytes(LedgerEncoding::Json);
        prop_assert_eq!(LedgerEncoding::detect(&bytes), LedgerEncoding::Json);
        let decoded = CampaignLedger::from_bytes(&bytes).expect("own bytes decode");
        prop_assert_eq!(decoded.events, ledger.events);
    }

    /// Any single flipped bit anywhere in a real recorded binary ledger
    /// is refused by the decoder.
    #[test]
    fn any_flipped_bit_is_refused(offset in any::<sample::Index>(), bit in 0u8..8) {
        let bin = recorded_binary();
        let offset = offset.index(bin.len());
        let mut tampered = bin.clone();
        tampered[offset] ^= 1 << bit;
        prop_assert!(
            CampaignLedger::from_bytes(&tampered).is_err(),
            "bit {} flipped at byte {} decoded cleanly", bit, offset
        );
    }

    /// Any strict truncation of a real recorded binary ledger is
    /// refused — a cut-off ledger is never a valid shorter one.
    #[test]
    fn any_truncation_is_refused(cut in any::<sample::Index>()) {
        let bin = recorded_binary();
        let cut = cut.index(bin.len());
        prop_assert!(
            CampaignLedger::from_bytes(&bin[..cut]).is_err(),
            "truncation to {} bytes decoded cleanly", cut
        );
    }
}

/// CRC-32 (IEEE, reflected), one bit at a time: written here from the
/// definition, independent of the codec's tables.
fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    !c
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn envelope(kind: u8) -> Vec<u8> {
    let mut out = b"EVWL".to_vec();
    out.extend_from_slice(&[1, kind]);
    out
}

/// The binary decoder entry points that accepted `bytes` (each call must
/// return, never panic).
fn decoders_accepting(bytes: &[u8]) -> Vec<&'static str> {
    let results = [
        ("CampaignLedger", CampaignLedger::from_bytes(bytes).is_ok()),
        ("FleetLedger", FleetLedger::from_bytes(bytes).is_ok()),
        (
            "FleetLedgerCheckpoint",
            FleetLedgerCheckpoint::from_bytes(bytes).is_ok(),
        ),
        (
            "ServiceCheckpoint",
            ServiceCheckpoint::from_bytes(bytes).is_ok(),
        ),
        ("replay_ledger_bytes", replay_ledger_bytes(bytes).is_ok()),
        (
            "replay_fleet_ledger_bytes",
            replay_fleet_ledger_bytes(bytes).is_ok(),
        ),
    ];
    results
        .into_iter()
        .filter_map(|(name, ok)| ok.then_some(name))
        .collect()
}

/// Random bytes, bare or behind the `EVWL` magic (so the binary path,
/// not only the JSON fallback, sees them).
fn arb_random_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        collection::vec(any::<u8>(), 0..512),
        collection::vec(any::<u8>(), 0..512).prop_map(|tail| {
            let mut out = b"EVWL".to_vec();
            out.extend_from_slice(&tail);
            out
        }),
    ]
}

/// Random bytes behind a valid envelope of any kind whose first checksum
/// holds: a campaign header declaring at least one segment, or a container
/// section, each sealed with its correct CRC. The tail is never empty, so
/// an empty but valid artifact cannot be built by chance.
fn arb_enveloped_bytes() -> impl Strategy<Value = Vec<u8>> {
    (
        0u8..4,
        1u64..8,
        any::<u64>(),
        collection::vec(any::<u8>(), 0..64),
        collection::vec(any::<u8>(), 1..512),
    )
        .prop_map(|(kind, segments, events, section, tail)| {
            let mut out = envelope(kind);
            let start = out.len();
            if kind == 0 {
                put_varint(&mut out, segments);
                put_varint(&mut out, events);
                let crc = crc32(&out[start..]);
                out.extend_from_slice(&crc.to_le_bytes());
            } else {
                put_varint(&mut out, section.len() as u64);
                out.extend_from_slice(&section);
                out.extend_from_slice(&crc32(&section).to_le_bytes());
            }
            out.extend_from_slice(&tail);
            out
        })
}

/// A campaign ledger of one segment holding `records` (each a record
/// body: tag byte, then fields), with every length, chained fold,
/// snapshot and CRC computed as the codec does.
fn frame_records(records: &[Vec<u8>]) -> Vec<u8> {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut fnv = FNV_OFFSET;
    let mut payload = Vec::new();
    for body in records {
        put_varint(&mut payload, body.len() as u64);
        payload.extend_from_slice(body);
        for &b in body {
            fnv = (fnv ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        let folded = fnv ^ (fnv >> 32);
        let folded = folded ^ (folded >> 16);
        payload.extend_from_slice(&(folded as u16).to_le_bytes());
    }
    let mut segment = Vec::new();
    for v in [0, records.len() as u64, 0, 0, 0, payload.len() as u64] {
        put_varint(&mut segment, v);
    }
    segment.extend_from_slice(&payload);
    let crc = crc32(&segment);
    segment.extend_from_slice(&crc.to_le_bytes());

    let mut out = envelope(0);
    let start = out.len();
    put_varint(&mut out, 1);
    put_varint(&mut out, records.len() as u64);
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&segment);
    out
}

/// One correctly framed segment of random record bodies (a tag byte in
/// or just past the known range, then random field bytes), so the event
/// decoder and the replay fold see arbitrary field values. Half the
/// field bytes are 0..4, so one-byte varints, flags and presence bytes
/// hit their edge values often.
fn arb_framed_records() -> impl Strategy<Value = Vec<u8>> {
    let field_byte = prop_oneof![0u8..4, any::<u8>()];
    collection::vec(
        (0u8..24, collection::vec(field_byte, 0..40)).prop_map(|(tag, fields)| {
            let mut body = vec![tag];
            body.extend_from_slice(&fields);
            body
        }),
        1..32,
    )
    .prop_map(|records| frame_records(&records))
}

#[test]
fn test_framing_matches_the_codec() {
    // The helpers above only mean something if they agree with the
    // codec: a one-event ledger framed here must equal the codec's bytes.
    let ledger = CampaignLedger {
        events: vec![CampaignEvent::GateDecision {
            lane: 3,
            rejected_total: 9,
        }],
    };
    let mut body = vec![5u8];
    put_varint(&mut body, 3);
    put_varint(&mut body, 9);
    assert_eq!(
        frame_records(&[body]),
        ledger.to_bytes(LedgerEncoding::Binary)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random bytes are refused by every decoder, never accepted and
    /// never a panic.
    #[test]
    fn random_bytes_are_refused(bytes in arb_random_bytes()) {
        let accepted = decoders_accepting(&bytes);
        prop_assert!(accepted.is_empty(), "accepted by {:?}", accepted);
    }

    /// Random bytes behind a valid envelope and a correct first checksum
    /// are refused by every decoder.
    #[test]
    fn random_bytes_behind_a_valid_envelope_are_refused(bytes in arb_enveloped_bytes()) {
        let accepted = decoders_accepting(&bytes);
        prop_assert!(accepted.is_empty(), "accepted by {:?}", accepted);
    }

    /// Arbitrary record bodies in a correctly framed segment never panic
    /// the decoder or the streaming replay; whatever decodes re-encodes
    /// to events that decode the same.
    #[test]
    fn random_framed_records_never_panic(bytes in arb_framed_records()) {
        let _ = replay_ledger_bytes(&bytes);
        if let Ok(ledger) = CampaignLedger::from_bytes(&bytes) {
            let again = CampaignLedger::from_bytes(&ledger.to_bytes(LedgerEncoding::Binary));
            prop_assert_eq!(again.expect("own bytes decode").events, ledger.events);
        }
    }
}
