//! Typed trace events — one variant per decision the scheduler makes.
//!
//! Events are plain data: every field is a number, a short enum, or a
//! string, so the exporters in [`crate::export`] can serialize them
//! without reflection or serde. The `t` field is simulation time in
//! seconds; events are emitted in non-decreasing `t` order by the driver.
//!
//! Every event is declared exactly once, in the `trace_events!` table at
//! the bottom of this file: its variant name, its wire kind, and its
//! fields in wire order. The table generates the [`TraceEvent`] enum, its
//! [`TraceEvent::t`] / [`TraceEvent::kind`] accessors, and the per-field
//! encode/decode the JSONL and CSV codecs in [`crate::export`] are built
//! on. Adding an event is one table entry (plus a CSV column for any new
//! field name).

use crate::export::{err, Field, ParseError, Wire};
use std::collections::BTreeMap;

/// Declares a tag enum whose variants travel as short wire strings; the
/// wire names are listed once and generate both directions.
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        $name:ident ($what:literal) {
            $( $(#[doc = $doc:literal])* $variant:ident => $wire:literal, )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name {
            $( $(#[doc = $doc])* $variant, )*
        }

        impl $name {
            /// Stable wire name of the tag.
            pub fn as_str(self) -> &'static str {
                match self {
                    $( $name::$variant => $wire, )*
                }
            }

            /// Parses a wire name produced by `as_str`.
            pub fn parse(s: &str) -> Option<Self> {
                match s {
                    $( $wire => Some($name::$variant), )*
                    _ => None,
                }
            }
        }

        impl Wire for $name {
            fn encode(&self) -> Field {
                Field::S(self.as_str().to_string())
            }

            fn decode(v: Option<&Field>, name: &str) -> Result<Self, ParseError> {
                let s = String::decode(v, name)?;
                $name::parse(&s).ok_or_else(|| err(concat!("unknown ", $what)))
            }
        }
    };
}

wire_enum! {
    /// Which trigger woke the scheduler (paper §III-B control policies).
    TriggerKind("trigger kind") {
        /// The periodic quantum timer fired.
        Quantum => "quantum",
        /// A core went idle (work-conserving wake-up).
        IdleCore => "idle_core",
        /// The pending-arrivals counter crossed its threshold.
        Counter => "counter",
        /// A fault transition (core loss/recovery, budget throttle) forced a
        /// replan outside the normal trigger set.
        Fault => "fault",
    }
}

wire_enum! {
    /// Which power-distribution policy an epoch used (paper §III-C).
    SplitPolicy("split policy") {
        /// Equal sharing — each busy core gets `budget / cores`.
        EqualShare => "equal_share",
        /// Water-filling — demand-proportional caps up to a common level.
        WaterFilling => "water_filling",
    }
}

wire_enum! {
    /// Why the serving front end refused a request (`ge-serve` traces).
    RejectReason("reject reason") {
        /// Backpressure: the ingress queue was above its high watermark (the
        /// wire analogue of HTTP 429).
        Busy => "busy",
        /// The armed quality floor was in danger: admitting more work would
        /// push ledger quality below `q_min`.
        Floor => "floor",
        /// The server was draining for shutdown and no longer admits work.
        Draining => "draining",
    }
}

/// A field's wire name: the Rust name unless the table overrides it.
macro_rules! wire_name {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident, $wire:literal) => {
        $wire
    };
}

/// Generates [`TraceEvent`] and its codec hooks from the event table.
/// Each entry is `Variant => "wire_kind" { field[ as "wire_name"]: Type }`;
/// every variant's first field is `t: f64`.
macro_rules! trace_events {
    (
        $(#[$meta:meta])*
        pub enum $enum:ident {
            $(
                $(#[doc = $vdoc:literal])*
                $variant:ident => $kind:literal {
                    $(
                        $(#[doc = $fdoc:literal])*
                        $field:ident $(as $wire:literal)?: $ty:ty
                    ),* $(,)?
                }
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq)]
        pub enum $enum {
            $(
                $(#[doc = $vdoc])*
                $variant {
                    $( $(#[doc = $fdoc])* $field: $ty, )*
                },
            )*
        }

        impl $enum {
            /// Every declared event kind with its fields' wire names, in
            /// table (and wire) order.
            pub const SCHEMA: &'static [(&'static str, &'static [&'static str])] = &[
                $( ($kind, &[ $( wire_name!($field $(, $wire)?) ),* ]), )*
            ];

            /// The event's simulation timestamp in seconds.
            pub fn t(&self) -> f64 {
                match self {
                    $( $enum::$variant { t, .. } => *t, )*
                }
            }

            /// Stable wire name of the event kind (the JSONL `ev` field).
            pub fn kind(&self) -> &'static str {
                match self {
                    $( $enum::$variant { .. } => $kind, )*
                }
            }

            /// Calls `f` with each field's wire name and value, in wire order.
            pub(crate) fn for_each_field(&self, mut f: impl FnMut(&'static str, Field)) {
                match self {
                    $(
                        $enum::$variant { $($field),* } => {
                            $( f(wire_name!($field $(, $wire)?), $field.encode()); )*
                        }
                    )*
                }
            }

            /// Rebuilds the event of wire kind `kind` from its parsed fields.
            pub(crate) fn decode(
                kind: &str,
                fields: &BTreeMap<String, Field>,
            ) -> Result<Self, ParseError> {
                Ok(match kind {
                    $(
                        $kind => $enum::$variant {
                            $( $field: {
                                let name = wire_name!($field $(, $wire)?);
                                Wire::decode(fields.get(name), name)?
                            }, )*
                        },
                    )*
                    other => return Err(err(format!("unknown event kind '{other}'"))),
                })
            }
        }
    };
}

trace_events! {
    /// One structured observation from a simulation run.
    ///
    /// The variants cover the full decision surface of the GE algorithm:
    /// arrival/assignment (C-RR), trigger firings, AES↔BQ mode transitions
    /// (with the ledger value that caused them), LF-cut levels and per-job
    /// cut amounts, ES/WF selection with the load estimate, per-core caps,
    /// Quality-OPT second cuts, YDS speed segments, per-slice energy, job
    /// completions, periodic quality samples, and run bracketing events.
    pub enum TraceEvent {
        /// Run provenance header, emitted (at most once) as the very first
        /// line of a trace. Unlike [`TraceEvent::RunStart`] it carries no
        /// simulation state — only enough metadata to tell which binary and
        /// which inputs produced the file. Replay validates it when present;
        /// headerless traces remain valid for compatibility.
        RunMeta => "run_meta" {
            /// Simulation time (always `0.0`).
            t: f64,
            /// Wire-schema tag (currently `"ge-trace/v1"`).
            schema: String,
            /// Workload seed the run was driven with.
            seed: u64,
            /// FNV-1a digest of the serialized run configuration.
            config_digest: u64,
            /// Workspace crate version that wrote the trace.
            version: String,
        },
        /// Run configuration, emitted once before any other event. Carries
        /// everything replay needs to rebuild the run's bookkeeping.
        RunStart => "run_start" {
            /// Simulation time of the run start (always `0.0`).
            t: f64,
            /// Human-readable algorithm label (e.g. `"GE"`, `"OQ"`).
            algorithm: String,
            /// Number of cores.
            cores: u64,
            /// Server-wide power budget in watts.
            budget_w: f64,
            /// Target batch quality `Q_GE`.
            q_ge: f64,
            /// Simulation horizon in seconds.
            horizon_s: f64,
            /// Static coefficient `a` of the power model `P(s) = a + s^β`.
            power_a: f64,
            /// Exponent `β` of the power model.
            power_beta: f64,
            /// Concavity `c` of the exponential quality function.
            quality_c: f64,
            /// Saturation point `x_max` of the quality function.
            quality_xmax: f64,
            /// Work units one GHz-second of compute retires.
            units_per_ghz_sec: f64,
            /// Mode at `t = 0` (`0` = AES, `1` = BQ).
            initial_mode: u64,
            /// Sliding-window length of the quality ledger (`0` = cumulative).
            ledger_window: u64,
        },
        /// A job entered the system.
        JobArrival => "job_arrival" {
            /// Event time in seconds.
            t: f64,
            /// Job identifier.
            job: u64,
            /// Absolute deadline in seconds.
            deadline_s: f64,
            /// Full processing demand in work units.
            demand: f64,
        },
        /// C-RR (or a baseline) bound a job to a core.
        JobAssigned => "job_assigned" {
            /// Event time in seconds.
            t: f64,
            /// Job identifier.
            job: u64,
            /// Destination core index.
            core: u64,
        },
        /// A scheduling trigger fired and an epoch began.
        TriggerFired => "trigger" {
            /// Event time in seconds.
            t: f64,
            /// Which trigger fired.
            kind as "trigger": TriggerKind,
            /// Jobs waiting in the global queue when it fired.
            queue_len: u64,
        },
        /// The controller moved between AES and BQ modes.
        ModeSwitch => "mode_switch" {
            /// Event time in seconds.
            t: f64,
            /// Mode before the switch (`0` = AES, `1` = BQ).
            from_mode: u64,
            /// Mode after the switch.
            to_mode: u64,
            /// Ledger quality that triggered the decision.
            ledger_quality: f64,
        },
        /// An LF cut levelled the epoch's batch to a common demand level.
        LfCut => "lf_cut" {
            /// Event time in seconds.
            t: f64,
            /// The common level `L` every longer job was cut to.
            level: f64,
            /// Batch quality the cut was solved for.
            target_quality: f64,
            /// Jobs in the cut batch.
            jobs: u64,
            /// Total volume before the cut (work units).
            volume_before: f64,
            /// Total volume retained after the cut.
            volume_after: f64,
        },
        /// One job's share of an LF cut (only jobs actually shortened).
        JobCut => "job_cut" {
            /// Event time in seconds.
            t: f64,
            /// Job identifier.
            job: u64,
            /// The job's full demand.
            full_demand: f64,
            /// Demand retained after the cut.
            cut_demand: f64,
        },
        /// The epoch chose a power-distribution policy.
        PowerSplit => "power_split" {
            /// Event time in seconds.
            t: f64,
            /// Equal sharing or water-filling.
            policy: SplitPolicy,
            /// Arrival-rate estimate that drove the choice (req/s).
            load_estimate_rps: f64,
            /// Budget being distributed (watts).
            budget_w: f64,
        },
        /// One core's power cap for the epoch.
        CoreCap => "core_cap" {
            /// Event time in seconds.
            t: f64,
            /// Core index.
            core: u64,
            /// Power cap in watts.
            cap_w: f64,
            /// Speed the cap permits (GHz).
            speed_cap_ghz: f64,
        },
        /// A per-core Quality-OPT second cut shrank an infeasible plan.
        SecondCut => "second_cut" {
            /// Event time in seconds.
            t: f64,
            /// Core index.
            core: u64,
            /// Core volume before the second cut.
            volume_before: f64,
            /// Core volume after.
            volume_after: f64,
        },
        /// One segment of a core's installed YDS speed profile.
        SpeedSegment => "speed_segment" {
            /// Event time in seconds (epoch time, not segment start).
            t: f64,
            /// Core index.
            core: u64,
            /// Segment start in seconds.
            start_s: f64,
            /// Segment end in seconds.
            end_s: f64,
            /// Planned speed over the segment (GHz).
            speed_ghz: f64,
        },
        /// Executed compute between two driver advances on one core.
        ExecSlice => "exec_slice" {
            /// Event time in seconds (the advance target).
            t: f64,
            /// Core index.
            core: u64,
            /// Slice start in seconds.
            start_s: f64,
            /// Slice end in seconds.
            end_s: f64,
            /// Compute volume retired (GHz·s).
            ghz_secs: f64,
            /// Energy spent over the slice (joules).
            energy_j: f64,
        },
        /// A job left the system (served or discarded), in ledger order.
        JobFinish => "job_finish" {
            /// Event time in seconds.
            t: f64,
            /// Job identifier.
            job: u64,
            /// Work units actually processed.
            processed: f64,
            /// The job's full demand.
            full_demand: f64,
            /// Whether the job was discarded unserved (deadline expiry).
            discarded: bool,
        },
        /// Periodic sample of the controller state (one per epoch).
        QualitySample => "quality_sample" {
            /// Event time in seconds.
            t: f64,
            /// Ledger quality at the sample.
            quality: f64,
            /// Current mode (`0` = AES, `1` = BQ).
            mode: u64,
            /// Backlog volume across cores (work units).
            backlog_units: f64,
            /// Arrival-rate estimate (req/s).
            load_estimate_rps: f64,
        },
        /// A core failed or recovered (fault injection).
        CoreFault => "core_fault" {
            /// Event time in seconds.
            t: f64,
            /// Core index.
            core: u64,
            /// `true` = the core just recovered, `false` = it just failed.
            online: bool,
        },
        /// The effective power budget was throttled (or restored).
        BudgetThrottle => "budget_throttle" {
            /// Event time in seconds.
            t: f64,
            /// Multiplier applied to the nominal budget (1.0 = restored).
            factor: f64,
            /// The effective budget now in force (watts).
            budget_w_effective: f64,
        },
        /// DVFS actuation error changed on a core: delivered speed is now
        /// `factor ×` the requested speed.
        DvfsDeviation => "dvfs_deviation" {
            /// Event time in seconds.
            t: f64,
            /// Core index.
            core: u64,
            /// Delivered-over-requested speed ratio (1.0 = nominal).
            factor: f64,
        },
        /// The scheduler was handed a noisy demand estimate for a job.
        DemandMisestimate => "demand_misestimate" {
            /// Event time in seconds (the job's arrival).
            t: f64,
            /// Job identifier.
            job: u64,
            /// The estimate the scheduler plans with.
            estimate: f64,
            /// The true demand execution will consume.
            full_demand: f64,
        },
        /// Admission control rejected a job to protect the quality floor.
        JobShed => "job_shed" {
            /// Event time in seconds.
            t: f64,
            /// Job identifier.
            job: u64,
            /// The scheduler's demand estimate for the job.
            estimate: f64,
            /// The job's true full demand.
            full_demand: f64,
            /// Projected batch quality that triggered the shed.
            projected_quality: f64,
        },
        /// Fleet run configuration, emitted once before any other fleet
        /// event (`ge-fleet` traces only).
        FleetRunStart => "fleet_run_start" {
            /// Simulation time of the run start (always `0.0`).
            t: f64,
            /// Number of servers behind the router.
            servers: u64,
            /// Cores per server.
            cores: u64,
            /// Global power budget `H` split across servers (watts).
            budget_w: f64,
            /// Routing policy wire name (e.g. `"jsq"`).
            policy: String,
            /// Budget partitioner wire name (e.g. `"prop"`).
            partitioner: String,
            /// Root seed driving routing and dispatch-loss coins.
            seed: u64,
        },
        /// A whole server crashed or recovered (fleet fault injection).
        ShardFault => "shard_fault" {
            /// Event time in seconds.
            t: f64,
            /// Server (shard) index.
            shard: u64,
            /// `true` = the server just rejoined, `false` = it just crashed.
            online: bool,
        },
        /// The router handed a job to a server.
        FleetDispatch => "fleet_dispatch" {
            /// Event time in seconds.
            t: f64,
            /// Job identifier.
            job: u64,
            /// Destination server index.
            shard: u64,
            /// Dispatch attempt (0 = first try).
            attempt: u64,
        },
        /// A dispatch attempt was lost; a bounded retry was scheduled.
        FleetRetry => "fleet_retry" {
            /// Event time of the lost attempt in seconds.
            t: f64,
            /// Job identifier.
            job: u64,
            /// The attempt that was lost (the retry will be `attempt + 1`).
            attempt: u64,
            /// When the retry fires, in seconds.
            next_s: f64,
        },
        /// A dead server's queued-unstarted job was reclaimed for re-routing.
        FleetFailover => "fleet_failover" {
            /// Event time (the crash instant) in seconds.
            t: f64,
            /// Job identifier.
            job: u64,
            /// The server the job was reclaimed from.
            shard: u64,
        },
        /// The router shed a job (no live server could take it within the
        /// quality floor, or its retry budget ran out).
        FleetShed => "fleet_shed" {
            /// Event time in seconds.
            t: f64,
            /// Job identifier.
            job: u64,
            /// The job's full demand (work units).
            demand: f64,
        },
        /// One server's slice of a budget reallocation epoch. Emitted for
        /// every server at each epoch; slices at one timestamp sum to the
        /// global budget `H`.
        FleetBudget => "fleet_budget" {
            /// Event time in seconds.
            t: f64,
            /// Server index.
            shard: u64,
            /// The server's allocated budget `H_i` (watts).
            budget_w: f64,
        },
        /// Final fleet aggregates, emitted once after all other fleet events.
        FleetSummary => "fleet_summary" {
            /// Horizon time in seconds.
            t: f64,
            /// Successful router→server dispatches.
            dispatched: u64,
            /// Jobs reclaimed from dead servers.
            failovers: u64,
            /// Dispatch attempts lost and retried.
            retries: u64,
            /// Jobs the router shed.
            shed: u64,
            /// Total energy across all servers (joules).
            energy_j: f64,
            /// Fleet-wide delivered quality.
            quality: f64,
        },
        /// Serving-session configuration, emitted once before any other serve
        /// event (`ge-serve` traces only).
        ServeRunStart => "serve_run_start" {
            /// Logical time of the session start (always `0.0`).
            t: f64,
            /// Human-readable algorithm label (e.g. `"GE"`).
            algorithm: String,
            /// Number of cores behind the front end.
            cores: u64,
            /// Server power budget in watts.
            budget_w: f64,
            /// Armed quality floor (`0` = disarmed).
            q_min: f64,
            /// Admission high watermark (in-flight depth that closes admission).
            queue_high: u64,
            /// Admission low watermark (in-flight depth that reopens admission).
            queue_low: u64,
        },
        /// A request arrived at the front end (before any admission decision).
        ServeRequest => "serve_request" {
            /// Logical arrival time in seconds.
            t: f64,
            /// Request identifier (dense, assigned at ingress).
            req: u64,
            /// Requested processing demand in work units.
            demand: f64,
            /// Absolute logical deadline in seconds.
            deadline_s: f64,
        },
        /// Admission control accepted a request into the engine.
        ServeAdmit => "serve_admit" {
            /// Logical time in seconds.
            t: f64,
            /// Request identifier.
            req: u64,
            /// In-flight depth (admitted, not yet terminal) after the admit.
            queue_len: u64,
        },
        /// Admission control refused a request (terminal: rejected).
        ServeReject => "serve_reject" {
            /// Logical time in seconds.
            t: f64,
            /// Request identifier.
            req: u64,
            /// Why the request was refused.
            reason: RejectReason,
            /// In-flight depth at the decision.
            queue_len: u64,
        },
        /// An admitted request's deadline expired unserved (terminal:
        /// timed-out; the engine discards it and the quality ledger counts it
        /// in the denominator).
        ServeTimeout => "serve_timeout" {
            /// Logical expiry time in seconds.
            t: f64,
            /// Request identifier.
            req: u64,
        },
        /// An admitted request finished with work done (terminal: completed —
        /// possibly partially, under a GE cut).
        ServeComplete => "serve_complete" {
            /// Logical completion time in seconds.
            t: f64,
            /// Request identifier.
            req: u64,
            /// Work units actually processed.
            processed: f64,
            /// The request's full demand.
            full_demand: f64,
        },
        /// The engine shed an admitted request under its quality floor
        /// (terminal: shed).
        ServeShed => "serve_shed" {
            /// Logical time in seconds.
            t: f64,
            /// Request identifier.
            req: u64,
        },
        /// Drain began: admission closed, in-flight work runs to a terminal
        /// state. No `ServeAdmit` may follow.
        ServeDrain => "serve_drain" {
            /// Logical time drain began, in seconds.
            t: f64,
            /// Requests admitted but not yet terminal at drain start.
            pending: u64,
        },
        /// Final serving-session aggregates, emitted once after all other
        /// serve events. Every request is exactly one of completed /
        /// rejected / shed / timed-out: the four counters sum to `requests`.
        ServeSummary => "serve_summary" {
            /// Logical time the books closed, in seconds.
            t: f64,
            /// Requests that reached the front end.
            requests: u64,
            /// Requests admitted into the engine.
            admitted: u64,
            /// Terminal: finished with work done.
            completed: u64,
            /// Terminal: refused at admission.
            rejected: u64,
            /// Terminal: deadline expired unserved.
            timed_out: u64,
            /// Terminal: shed by the engine's quality floor or at drain.
            shed: u64,
        },
        /// Final reported aggregates, emitted once after all other events.
        RunSummary => "run_summary" {
            /// Horizon time in seconds.
            t: f64,
            /// Reported total energy (joules).
            energy_j: f64,
            /// Reported batch quality.
            quality: f64,
            /// Reported AES residency fraction.
            aes_fraction: f64,
            /// Jobs that left the system.
            jobs_finished: u64,
            /// Jobs discarded unserved.
            jobs_discarded: u64,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_and_time_accessors() {
        let e = TraceEvent::ModeSwitch {
            t: 2.5,
            from_mode: 1,
            to_mode: 0,
            ledger_quality: 0.93,
        };
        assert_eq!(e.kind(), "mode_switch");
        assert_eq!(e.t(), 2.5);
        let s = TraceEvent::TriggerFired {
            t: 1.0,
            kind: TriggerKind::Quantum,
            queue_len: 3,
        };
        assert_eq!(s.kind(), "trigger");
        assert_eq!(s.t(), 1.0);
    }

    #[test]
    fn enum_wire_names_round_trip() {
        for k in [
            TriggerKind::Quantum,
            TriggerKind::IdleCore,
            TriggerKind::Counter,
            TriggerKind::Fault,
        ] {
            assert_eq!(TriggerKind::parse(k.as_str()), Some(k));
        }
        for p in [SplitPolicy::EqualShare, SplitPolicy::WaterFilling] {
            assert_eq!(SplitPolicy::parse(p.as_str()), Some(p));
        }
        for r in [
            RejectReason::Busy,
            RejectReason::Floor,
            RejectReason::Draining,
        ] {
            assert_eq!(RejectReason::parse(r.as_str()), Some(r));
        }
        assert_eq!(TriggerKind::parse("nope"), None);
    }

    #[test]
    fn schema_lists_every_kind_once_with_t_first() {
        let mut kinds: Vec<&str> = TraceEvent::SCHEMA.iter().map(|(k, _)| *k).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(
            kinds.len(),
            TraceEvent::SCHEMA.len(),
            "duplicate wire kind in the event table"
        );
        for (kind, fields) in TraceEvent::SCHEMA {
            assert_eq!(fields.first(), Some(&"t"), "{kind} must lead with t");
        }
        let trigger = TraceEvent::SCHEMA.iter().find(|(k, _)| *k == "trigger");
        assert_eq!(
            trigger.map(|(_, f)| *f),
            Some(&["t", "trigger", "queue_len"][..])
        );
    }
}
