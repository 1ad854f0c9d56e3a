//! Deterministic fault injection for the serving stack.
//!
//! A [`FaultPlan`] declares, per reply event, a seeded probability of
//! transport misbehaviour — extra latency, a dropped connection, a
//! truncated frame, a flipped payload byte — and, per request read, of a
//! swallowed, torn or corrupted request. The plan is *deterministic*:
//! event `n` under seed `s` always makes the same decision
//! ([`SplitMix64`]-derived, the same generator family as the seeded
//! defect maps), so a chaos soak that fails reproduces exactly from its
//! spec string.
//!
//! Injection is strictly opt-in (`leqa serve --chaos SPEC`): a server
//! without an injector runs the exact byte-stable paths the golden and
//! differential suites pin. With one, faults are applied at the
//! transport layer only — the session underneath still computes correct
//! replies, so a retrying client converges on answers byte-identical to
//! a direct [`Session`](crate::Session).
//!
//! # Spec grammar
//!
//! Comma-separated `key=value` entries, all optional:
//!
//! ```text
//! seed=N            decision seed (default 0)
//! delay=MS:RATE     sleep MS milliseconds before a reply, with
//!                   probability RATE (bare `delay=MS` means rate 1)
//! drop=RATE         close the connection instead of replying
//! truncate=RATE     write a torn prefix of the reply, then close
//! flip=RATE         corrupt one payload byte (high-bit flip —
//!                   detectably, as invalid UTF-8), then deliver
//! rdrop=RATE        swallow a *request read* and close the connection
//!                   before the engine ever sees the line
//! rtruncate=RATE    read only a torn prefix of a request (the rest of
//!                   the line is lost with the connection)
//! rflip=RATE        corrupt one inbound request byte (high-bit flip)
//! ```
//!
//! Example: `seed=7,delay=5:0.2,drop=0.05,truncate=0.05,flip=0.05`.
//! The `drop`/`truncate`/`flip` rates partition one uniform draw, so
//! their sum must stay ≤ 1; the read-side `rdrop`/`rtruncate`/`rflip`
//! rates partition a second, independent draw with the same ≤ 1 rule.
//! Read-side decisions are salted so the inbound fault sequence is
//! independent of the reply-side one under the same seed.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use leqa_fabric::SplitMix64;

use crate::error::LeqaError;

/// A declarative, seeded fault-injection plan (see the [module
/// docs](self) for the spec grammar).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct FaultPlan {
    /// Decision seed: the same seed replays the same fault sequence.
    pub seed: u64,
    /// Injected latency per delayed reply.
    pub delay_ms: u64,
    /// Probability a reply is delayed by [`delay_ms`](Self::delay_ms).
    pub delay_rate: f64,
    /// Probability a reply is swallowed and the connection closed.
    pub drop_rate: f64,
    /// Probability a reply is written as a torn prefix, then closed.
    pub truncate_rate: f64,
    /// Probability one payload byte of a reply is flipped.
    pub flip_rate: f64,
    /// Probability a request read is swallowed and the connection closed
    /// before the engine sees the line.
    pub rdrop_rate: f64,
    /// Probability a request line is read as a torn prefix, the rest
    /// lost with the connection.
    pub rtruncate_rate: f64,
    /// Probability one inbound request byte is flipped.
    pub rflip_rate: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            delay_ms: 0,
            delay_rate: 0.0,
            drop_rate: 0.0,
            truncate_rate: 0.0,
            flip_rate: 0.0,
            rdrop_rate: 0.0,
            rtruncate_rate: 0.0,
            rflip_rate: 0.0,
        }
    }
}

impl FaultPlan {
    /// Parses the `--chaos` spec grammar (see the [module docs](self)).
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Usage`](crate::ErrorKind::Usage) for unknown keys,
    /// unparseable numbers, rates outside `[0, 1]`, or
    /// `drop + truncate + flip > 1`.
    pub fn parse(spec: &str) -> Result<FaultPlan, LeqaError> {
        let mut plan = FaultPlan::default();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (key, value) = entry.split_once('=').ok_or_else(|| {
                LeqaError::usage(format!("chaos entry `{entry}` is not `key=value`"))
            })?;
            match key {
                "seed" => plan.seed = parse_u64(key, value)?,
                "delay" => match value.split_once(':') {
                    None => {
                        plan.delay_ms = parse_u64(key, value)?;
                        plan.delay_rate = 1.0;
                    }
                    Some((ms, rate)) => {
                        plan.delay_ms = parse_u64(key, ms)?;
                        plan.delay_rate = parse_rate(key, rate)?;
                    }
                },
                "drop" => plan.drop_rate = parse_rate(key, value)?,
                "truncate" => plan.truncate_rate = parse_rate(key, value)?,
                "flip" => plan.flip_rate = parse_rate(key, value)?,
                "rdrop" => plan.rdrop_rate = parse_rate(key, value)?,
                "rtruncate" => plan.rtruncate_rate = parse_rate(key, value)?,
                "rflip" => plan.rflip_rate = parse_rate(key, value)?,
                other => {
                    return Err(LeqaError::usage(format!(
                        "unknown chaos key `{other}` \
                         (seed|delay|drop|truncate|flip|rdrop|rtruncate|rflip)"
                    )))
                }
            }
        }
        if plan.drop_rate + plan.truncate_rate + plan.flip_rate > 1.0 {
            return Err(LeqaError::usage(
                "chaos rates drop+truncate+flip must sum to at most 1",
            ));
        }
        if plan.rdrop_rate + plan.rtruncate_rate + plan.rflip_rate > 1.0 {
            return Err(LeqaError::usage(
                "chaos rates rdrop+rtruncate+rflip must sum to at most 1",
            ));
        }
        Ok(plan)
    }

    /// Re-encodes the plan as a spec string [`parse`](Self::parse)
    /// accepts (field order is fixed; defaults are omitted).
    #[must_use]
    pub fn spec(&self) -> String {
        let mut parts = vec![format!("seed={}", self.seed)];
        if self.delay_rate > 0.0 && self.delay_ms > 0 {
            parts.push(format!("delay={}:{}", self.delay_ms, self.delay_rate));
        }
        if self.drop_rate > 0.0 {
            parts.push(format!("drop={}", self.drop_rate));
        }
        if self.truncate_rate > 0.0 {
            parts.push(format!("truncate={}", self.truncate_rate));
        }
        if self.flip_rate > 0.0 {
            parts.push(format!("flip={}", self.flip_rate));
        }
        if self.rdrop_rate > 0.0 {
            parts.push(format!("rdrop={}", self.rdrop_rate));
        }
        if self.rtruncate_rate > 0.0 {
            parts.push(format!("rtruncate={}", self.rtruncate_rate));
        }
        if self.rflip_rate > 0.0 {
            parts.push(format!("rflip={}", self.rflip_rate));
        }
        parts.join(",")
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.spec())
    }
}

fn parse_u64(key: &str, value: &str) -> Result<u64, LeqaError> {
    value
        .parse()
        .map_err(|_| LeqaError::usage(format!("chaos `{key}` needs an integer, got `{value}`")))
}

fn parse_rate(key: &str, value: &str) -> Result<f64, LeqaError> {
    let rate: f64 = value.parse().map_err(|_| {
        LeqaError::usage(format!(
            "chaos `{key}` needs a rate in [0, 1], got `{value}`"
        ))
    })?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(LeqaError::usage(format!(
            "chaos `{key}` rate {rate} is outside [0, 1]"
        )));
    }
    Ok(rate)
}

/// What the injector decided for one reply event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultAction {
    /// Deliver the reply normally.
    Deliver,
    /// Close the connection without writing the reply.
    DropConnection,
    /// Write only the given number of bytes of the framed reply, then
    /// close the connection (a torn write, as a crash mid-flush would
    /// leave).
    Truncate,
    /// Flip the high bit of the payload byte at the given index (mod
    /// payload length), then deliver. On the protocol's ASCII JSON the
    /// result is invalid UTF-8, so the corruption is always detectable
    /// — the client must notice and retry.
    FlipByte(usize),
}

/// What the injector decided for one *request read* event — corruption
/// on the inbound half of the wire, before the engine sees the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ReadFaultAction {
    /// Hand the request to the engine unharmed.
    Deliver,
    /// Swallow the request and close the connection (the engine never
    /// sees it; the client observes a lost connection and must retry).
    DropRequest,
    /// Read only a torn prefix of the request line; the rest is lost
    /// with the connection, as a peer crash mid-write would leave.
    Truncate,
    /// Flip the high bit of the inbound byte at the given index (mod
    /// line length). On the protocol's ASCII JSON the result is invalid
    /// UTF-8, so the damage is detectable at the framing layer.
    FlipByte(usize),
}

/// One reply event's complete decision: an optional injected delay plus
/// the delivery action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct FaultDecision {
    /// Sleep this long before acting (None = no injected latency).
    pub delay: Option<Duration>,
    /// How (whether) to deliver the reply.
    pub action: FaultAction,
}

impl FaultDecision {
    /// The no-fault decision (what an injector-less server always does).
    #[must_use]
    pub fn deliver() -> Self {
        FaultDecision {
            delay: None,
            action: FaultAction::Deliver,
        }
    }
}

/// A [`FaultPlan`] bound to a monotone event counter: each reply event
/// draws its decision from `SplitMix64(mix(seed, n))`, so the sequence
/// of decisions is a pure function of `(seed, event index)`.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    events: AtomicU64,
    reads: AtomicU64,
}

/// Salt folded into the plan seed for read-side decisions, so the
/// inbound fault sequence is independent of the reply-side one under the
/// same seed (the two counters advance independently anyway; the salt
/// keeps even event `n`'s draws uncorrelated).
const READ_SALT: u64 = 0x5245_4144_5245_4144; // "READREAD"

impl FaultInjector {
    /// Binds a plan to fresh event counters.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            events: AtomicU64::new(0),
            reads: AtomicU64::new(0),
        }
    }

    /// The plan this injector executes.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Reply events decided so far.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// Draws the next reply event's decision (advances the counter).
    #[must_use]
    pub fn next_decision(&self) -> FaultDecision {
        let n = self.events.fetch_add(1, Ordering::Relaxed) + 1;
        self.decision_for(n)
    }

    /// The decision for event `n` (1-based) — pure, so tests and replays
    /// can audit a sequence without consuming the counter.
    #[must_use]
    pub fn decision_for(&self, n: u64) -> FaultDecision {
        let plan = &self.plan;
        let mut rng = SplitMix64::new(SplitMix64::mix(plan.seed, n));
        let delay = (plan.delay_ms > 0 && rng.next_f64() < plan.delay_rate)
            .then(|| Duration::from_millis(plan.delay_ms));
        let draw = rng.next_f64();
        let action = if draw < plan.drop_rate {
            FaultAction::DropConnection
        } else if draw < plan.drop_rate + plan.truncate_rate {
            FaultAction::Truncate
        } else if draw < plan.drop_rate + plan.truncate_rate + plan.flip_rate {
            FaultAction::FlipByte(rng.next_u64() as usize)
        } else {
            FaultAction::Deliver
        };
        FaultDecision { delay, action }
    }

    /// Request-read events decided so far.
    #[must_use]
    pub fn read_events(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Draws the next request-read event's decision (advances the read
    /// counter, which is independent of the reply counter).
    #[must_use]
    pub fn next_read_decision(&self) -> ReadFaultAction {
        let n = self.reads.fetch_add(1, Ordering::Relaxed) + 1;
        self.read_decision_for(n)
    }

    /// The read decision for event `n` (1-based) — pure, like
    /// [`decision_for`](Self::decision_for).
    #[must_use]
    pub fn read_decision_for(&self, n: u64) -> ReadFaultAction {
        let plan = &self.plan;
        let mut rng = SplitMix64::new(SplitMix64::mix(plan.seed ^ READ_SALT, n));
        let draw = rng.next_f64();
        if draw < plan.rdrop_rate {
            ReadFaultAction::DropRequest
        } else if draw < plan.rdrop_rate + plan.rtruncate_rate {
            ReadFaultAction::Truncate
        } else if draw < plan.rdrop_rate + plan.rtruncate_rate + plan.rflip_rate {
            ReadFaultAction::FlipByte(rng.next_u64() as usize)
        } else {
            ReadFaultAction::Deliver
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_parse() {
        let plan = FaultPlan::parse("seed=7,delay=5:0.25,drop=0.1,truncate=0.1,flip=0.1").unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.delay_ms, 5);
        assert_eq!(plan.delay_rate, 0.25);
        assert_eq!(plan.drop_rate, 0.1);
        assert_eq!(plan.truncate_rate, 0.1);
        assert_eq!(plan.flip_rate, 0.1);
        assert_eq!(FaultPlan::parse(&plan.spec()).unwrap(), plan);
    }

    #[test]
    fn bare_delay_means_always() {
        let plan = FaultPlan::parse("delay=3").unwrap();
        assert_eq!(plan.delay_ms, 3);
        assert_eq!(plan.delay_rate, 1.0);
    }

    #[test]
    fn bad_specs_are_usage_errors() {
        for spec in [
            "nope=1",
            "delay",
            "drop=2",
            "drop=-0.5",
            "flip=abc",
            "seed=abc",
            "drop=0.5,truncate=0.4,flip=0.2",
        ] {
            let err = FaultPlan::parse(spec).unwrap_err();
            assert_eq!(err.kind(), crate::ErrorKind::Usage, "spec `{spec}`");
        }
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let plan = FaultPlan::parse("seed=1,delay=2:0.3,drop=0.2,truncate=0.2,flip=0.2").unwrap();
        let a = FaultInjector::new(plan);
        let b = FaultInjector::new(plan);
        let seq_a: Vec<FaultDecision> = (0..64).map(|_| a.next_decision()).collect();
        let seq_b: Vec<FaultDecision> = (0..64).map(|_| b.next_decision()).collect();
        assert_eq!(seq_a, seq_b, "same seed, same sequence");

        let other = FaultInjector::new(FaultPlan { seed: 2, ..plan });
        let seq_c: Vec<FaultDecision> = (0..64).map(|_| other.next_decision()).collect();
        assert_ne!(seq_a, seq_c, "different seed, different sequence");
    }

    #[test]
    fn kill_is_an_unknown_chaos_key() {
        let err = FaultPlan::parse("kill=5").unwrap_err();
        assert_eq!(err.kind(), crate::ErrorKind::Usage);
        assert!(err.to_string().contains("`kill`"), "{err}");
    }

    #[test]
    fn empty_plan_always_delivers() {
        let injector = FaultInjector::new(FaultPlan::parse("").unwrap());
        for _ in 0..32 {
            assert_eq!(injector.next_decision(), FaultDecision::deliver());
        }
    }

    #[test]
    fn read_spec_round_trips_and_validates() {
        let plan = FaultPlan::parse("seed=3,rdrop=0.1,rtruncate=0.2,rflip=0.3").unwrap();
        assert_eq!(plan.rdrop_rate, 0.1);
        assert_eq!(plan.rtruncate_rate, 0.2);
        assert_eq!(plan.rflip_rate, 0.3);
        assert_eq!(FaultPlan::parse(&plan.spec()).unwrap(), plan);
        // The read rates partition their own draw, separately from the
        // write rates: each sum is validated on its own.
        assert!(FaultPlan::parse("rdrop=0.5,rtruncate=0.4,rflip=0.2").is_err());
        assert!(FaultPlan::parse("drop=0.9,rdrop=0.9").is_ok());
    }

    #[test]
    fn read_decisions_are_deterministic_and_independent_of_writes() {
        // Symmetric rates, same seed: the read sequence must replay
        // exactly, and must NOT mirror the write sequence (the salt
        // decorrelates the two draws).
        let plan = FaultPlan::parse(
            "seed=1,drop=0.2,truncate=0.2,flip=0.2,rdrop=0.2,rtruncate=0.2,rflip=0.2",
        )
        .unwrap();
        let injector = FaultInjector::new(plan);
        let replay = FaultInjector::new(plan);
        let reads: Vec<ReadFaultAction> = (1..=64).map(|n| injector.read_decision_for(n)).collect();
        let again: Vec<ReadFaultAction> = (1..=64).map(|n| replay.read_decision_for(n)).collect();
        assert_eq!(reads, again, "same seed, same read sequence");

        let mirrored = (1..=64u64).all(|n| {
            let w = injector.decision_for(n).action;
            let r = injector.read_decision_for(n);
            matches!(
                (w, r),
                (FaultAction::Deliver, ReadFaultAction::Deliver)
                    | (FaultAction::DropConnection, ReadFaultAction::DropRequest)
                    | (FaultAction::Truncate, ReadFaultAction::Truncate)
                    | (FaultAction::FlipByte(_), ReadFaultAction::FlipByte(_))
            )
        });
        assert!(!mirrored, "read decisions must not mirror write decisions");
    }

    #[test]
    fn default_plan_never_faults_reads() {
        let injector = FaultInjector::new(FaultPlan::default());
        for _ in 0..32 {
            assert_eq!(injector.next_read_decision(), ReadFaultAction::Deliver);
        }
        assert_eq!(injector.read_events(), 32);
        assert_eq!(
            injector.events(),
            0,
            "read draws never consume reply events"
        );
    }

    #[test]
    fn rates_partition_one_draw() {
        // With drop+truncate+flip = 1 every event misbehaves.
        let plan = FaultPlan::parse("drop=0.4,truncate=0.3,flip=0.3").unwrap();
        let injector = FaultInjector::new(plan);
        for _ in 0..64 {
            assert_ne!(injector.next_decision().action, FaultAction::Deliver);
        }
    }
}
