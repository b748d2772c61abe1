//! The versioned `qz-snap/v2` wire format.
//!
//! A [`SimState`] serializes to a single JSON object so snapshots can be
//! written next to postmortems, embedded in flight-recorder dumps, and
//! diffed with ordinary text tools. Bit-exactness is the contract, and
//! JSON numbers cannot carry it: the workspace JSON reader
//! ([`qz_types::json::Json`]) parses every number through `f64`, which
//! rounds 64-bit integers above 2^53. Every `f64` therefore travels as
//! the decimal rendering of its IEEE-754 bit pattern, and every `u64`
//! (RNG words, counters, millisecond clocks) travels as a decimal
//! string. Small shape fields (indices, window capacities, booleans)
//! stay native JSON.
//!
//! Parsing needs the [`AppSpec`] the simulation was built from: task
//! identifiers inside estimator history are spec-private and travel as
//! indices, so `from_json` revalidates them against the live spec.

use quetzal::model::TaskKey;
use quetzal::{
    AppSpec, BitWindowState, EstimatorState, P2QuantileState, PidState, PredictorState,
    RuntimeState,
};
use qz_energy::PowerSystemState;
use qz_sim::buffer::BufferEntry;
use qz_sim::uplink::TxRecord;
use qz_sim::{
    ActiveJobState, InjectorState, InputBufferState, Metrics, ProgressKeeperState, SimState,
    UplinkState,
};
// Every `u64` goes out as a decimal string, bit-exact through the
// f64-based reader.
use qz_types::json::{DecimalU64 as U, Json, Writer};
use qz_types::{Joules, Seconds, SimDuration, SimTime, Watts};

/// Schema tag every `qz-snap/v2` document opens with. A snapshot holds
/// engine state only; observers such as telemetry are not part of it.
pub const SCHEMA: &str = "qz-snap/v2";

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// An `f64` as the decimal rendering of its bit pattern.
fn f(v: f64) -> U {
    U(v.to_bits())
}

fn window(w: &mut Writer<'_>, s: &BitWindowState) {
    w.obj(|w| {
        w.field("capacity", s.capacity)
            .key("blocks")
            .items(s.blocks.iter().map(|&b| U(b)))
            .field("head", s.head)
            .field("filled", s.filled)
            .field("ones", s.ones);
    });
}

fn quantile(w: &mut Writer<'_>, q: &P2QuantileState) {
    w.obj(|w| {
        w.key("heights").items(q.heights.map(f));
        w.key("positions").items(q.positions.map(f));
        w.key("desired").items(q.desired.map(f));
        w.field("count", q.count);
    });
}

fn estimator(w: &mut Writer<'_>, e: &EstimatorState) {
    w.obj(|w| match e {
        EstimatorState::Stateless => {
            w.field("kind", "stateless");
        }
        EstimatorState::AvgObserved(entries) => {
            w.field("kind", "avg_observed").key("entries").arr(|w| {
                for (key, sum, count) in entries {
                    w.arr(|w| {
                        w.value(key.task.index())
                            .value(key.option)
                            .value(f(*sum))
                            .value(U(*count));
                    });
                }
            });
        }
        EstimatorState::VariableCost(entries) => {
            w.field("kind", "variable_cost").key("entries").arr(|w| {
                for (key, q, base) in entries {
                    w.arr(|w| {
                        w.value(key.task.index()).value(key.option);
                        quantile(w, q);
                        w.value(f(*base));
                    });
                }
            });
        }
    });
}

fn runtime(w: &mut Writer<'_>, r: &RuntimeState) {
    w.obj(|w| {
        w.key("exec").arr(|w| {
            for s in &r.exec {
                window(w, s);
            }
        });
        window(w.key("arrivals"), &r.arrivals);
        w.key("pid").obj(|w| {
            w.field("integrator", f(r.pid.integrator))
                .field("differentiator", f(r.pid.differentiator))
                .field("prev_error", f(r.pid.prev_error))
                .field("output", f(r.pid.output));
        });
        estimator(w.key("estimator"), &r.estimator);
        w.key("predictor").obj(|w| match &r.predictor {
            PredictorState::Stateless => {
                w.field("kind", "stateless");
            }
            PredictorState::Ewma(v) => {
                w.field("kind", "ewma").field("value", v.map(|p| f(p.0)));
            }
        });
        opt(
            w.key("last_prediction"),
            r.last_prediction.as_ref(),
            |w, (job, s)| {
                w.arr(|w| {
                    w.value(job).value(f(s.0));
                });
            },
        );
        w.key("current_options").items(&r.current_options);
    });
}

fn entry(w: &mut Writer<'_>, e: &BufferEntry) {
    w.obj(|w| {
        w.field("captured_at", U(e.captured_at.as_millis()))
            .field("interesting", e.interesting);
    });
}

fn job(w: &mut Writer<'_>, j: &ActiveJobState) {
    w.obj(|w| {
        w.field("job", j.job).field("option", j.option);
        entry(w.key("entry"), &j.entry);
        w.field("task_index", j.task_index)
            .field("remaining", U(j.remaining.as_millis()))
            .field("full_latency", U(j.full_latency.as_millis()))
            .key("keeper")
            .obj(|w| {
                w.field("snapshot", U(j.keeper.snapshot.as_millis()))
                    .field("since_checkpoint", U(j.keeper.since_checkpoint.as_millis()));
            })
            .key("executed")
            .items(&j.executed)
            .field("started_at", U(j.started_at.as_millis()))
            .field("task_started_at", U(j.task_started_at.as_millis()))
            .field("tx_wait", j.tx_wait);
    });
}

/// Named slots of one field type.
type Slots<'m, T, const N: usize> = [(&'static str, &'m mut T); N];

/// The `u64` counters and the durations of [`Metrics`] in wire order,
/// one table for the encoder and the decoder. The remaining fields
/// (`jobs_by_option`, the two energies, `pending_interesting`) follow
/// them on the wire.
fn metric_fields(m: &mut Metrics) -> (Slots<'_, u64, 33>, Slots<'_, SimDuration, 8>) {
    let counters = [
        ("frames_total", &mut m.frames_total),
        ("interesting_total", &mut m.interesting_total),
        ("frames_missed_off", &mut m.frames_missed_off),
        ("interesting_missed_off", &mut m.interesting_missed_off),
        ("frames_filtered", &mut m.frames_filtered),
        ("arrivals", &mut m.arrivals),
        ("stored", &mut m.stored),
        ("ibo_discards", &mut m.ibo_discards),
        ("ibo_interesting", &mut m.ibo_interesting),
        ("ibo_while_off", &mut m.ibo_while_off),
        ("ibo_during_full_job", &mut m.ibo_during_full_job),
        ("ibo_during_degraded_job", &mut m.ibo_during_degraded_job),
        ("false_negatives", &mut m.false_negatives),
        ("true_negatives", &mut m.true_negatives),
        ("reports_interesting_high", &mut m.reports_interesting_high),
        ("reports_interesting_low", &mut m.reports_interesting_low),
        (
            "reports_uninteresting_high",
            &mut m.reports_uninteresting_high,
        ),
        (
            "reports_uninteresting_low",
            &mut m.reports_uninteresting_low,
        ),
        ("tx_grants", &mut m.tx_grants),
        ("tx_busy_backoffs", &mut m.tx_busy_backoffs),
        ("tx_duty_deferrals", &mut m.tx_duty_deferrals),
        ("ibo_predictions", &mut m.ibo_predictions),
        ("checkpoints", &mut m.checkpoints),
        ("power_failures", &mut m.power_failures),
        ("restores", &mut m.restores),
        ("occupancy_ms", &mut m.occupancy_ms),
        ("faults_power", &mut m.faults_power),
        ("faults_checkpoint", &mut m.faults_checkpoint),
        ("faults_adc", &mut m.faults_adc),
        ("faults_clock", &mut m.faults_clock),
        ("faults_burst", &mut m.faults_burst),
        ("faults_jam", &mut m.faults_jam),
        ("pending", &mut m.pending),
    ];
    let durations = [
        ("tx_backoff_wait", &mut m.tx_backoff_wait),
        ("tx_airtime", &mut m.tx_airtime),
        ("delivery_latency_total", &mut m.delivery_latency_total),
        ("delivery_latency_max", &mut m.delivery_latency_max),
        ("reexecuted", &mut m.reexecuted),
        ("time_on", &mut m.time_on),
        ("time_off", &mut m.time_off),
        ("sim_time", &mut m.sim_time),
    ];
    (counters, durations)
}

fn metrics(w: &mut Writer<'_>, m: &Metrics) {
    let mut copy = m.clone();
    let (counters, durations) = metric_fields(&mut copy);
    w.obj(|w| {
        for (key, v) in counters {
            w.field(key, U(*v));
        }
        for (key, v) in durations {
            w.field(key, U(v.as_millis()));
        }
        w.key("jobs_by_option")
            .items(m.jobs_by_option.iter().map(|&v| U(v)))
            .field("energy_harvested", f(m.energy_harvested.value()))
            .field("energy_wasted", f(m.energy_wasted.value()))
            .field("pending_interesting", U(m.pending_interesting));
    });
}

fn uplink(w: &mut Writer<'_>, s: &UplinkState) {
    w.obj(|w| {
        w.field("rng", U(s.rng))
            .field("p_busy", f(s.p_busy))
            .field("attempts", s.attempts)
            .field("window_index", U(s.window_index))
            .field("window_used", U(s.window_used))
            .key("log")
            .arr(|w| {
                for rec in &s.log {
                    w.items([U(rec.start_slot), U(rec.slots)]);
                }
            })
            .field("total_airtime", U(s.total_airtime.as_millis()));
    });
}

/// `null`, or `v` written by `enc`.
fn opt<T>(w: &mut Writer<'_>, v: Option<&T>, enc: impl FnOnce(&mut Writer<'_>, &T)) {
    if let Some(inner) = v {
        enc(w, inner);
    } else {
        w.null();
    }
}

/// Serializes a [`SimState`] as a single-line `qz-snap/v2` JSON object.
pub fn to_json(state: &SimState) -> String {
    let mut out = String::with_capacity(4096);
    Writer::new(&mut out).obj(|w| {
        w.field("schema", SCHEMA)
            .field("now", U(state.now.as_millis()))
            .field("on", state.on)
            .key("power")
            .obj(|w| {
                let p = &state.power;
                w.field("stored", f(p.stored.value()))
                    .field("total_harvested", f(p.total_harvested.value()))
                    .field("total_wasted", f(p.total_wasted.value()))
                    .field("total_supplied", f(p.total_supplied.value()));
            });
        runtime(w.key("runtime"), &state.runtime);
        w.key("buffer").obj(|w| {
            w.field("in_flight", state.buffer.in_flight)
                .key("queues")
                .arr(|w| {
                    for q in &state.buffer.queues {
                        w.arr(|w| {
                            for e in q {
                                entry(w, e);
                            }
                        });
                    }
                });
        });
        opt(w.key("job"), state.job.as_ref(), job);
        w.field("rng", U(state.rng));
        metrics(w.key("metrics"), &state.metrics);
        opt(w.key("uplink"), state.uplink.as_ref(), uplink);
        opt(w.key("injector"), state.injector.as_ref(), |w, inj| {
            w.obj(|w| {
                w.key("words").items(inj.words.iter().map(|&v| U(v)));
            });
        });
        w.field("off_since", state.off_since.map(|t| U(t.as_millis())))
            .field(
                "last_checkpoint_at",
                state.last_checkpoint_at.map(|t| U(t.as_millis())),
            )
            .field("done", state.done);
    });
    out
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

fn field<'a>(j: &'a Json, key: &str) -> Result<&'a Json, String> {
    j.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn d_u64_item(j: &Json, what: &str) -> Result<u64, String> {
    j.as_str()
        .ok_or_else(|| format!("{what} must be a decimal string"))?
        .parse::<u64>()
        .map_err(|e| format!("{what}: {e}"))
}

fn d_f64_item(j: &Json, what: &str) -> Result<f64, String> {
    d_u64_item(j, what).map(f64::from_bits)
}

fn d_u64(j: &Json, key: &str) -> Result<u64, String> {
    d_u64_item(field(j, key)?, key)
}

fn d_f64(j: &Json, key: &str) -> Result<f64, String> {
    d_u64(j, key).map(f64::from_bits)
}

fn d_usize(j: &Json, key: &str) -> Result<usize, String> {
    d_usize_item(field(j, key)?, key)
}

fn d_bool(j: &Json, key: &str) -> Result<bool, String> {
    match field(j, key)? {
        Json::Bool(b) => Ok(*b),
        _ => Err(format!("`{key}` must be a boolean")),
    }
}

fn d_arr<'a>(j: &'a Json, key: &str) -> Result<&'a [Json], String> {
    field(j, key)?
        .as_arr()
        .ok_or_else(|| format!("`{key}` must be an array"))
}

fn d_duration(j: &Json, key: &str) -> Result<SimDuration, String> {
    Ok(SimDuration::from_millis(d_u64(j, key)?))
}

fn d_time(j: &Json, key: &str) -> Result<SimTime, String> {
    Ok(SimTime::from_millis(d_u64(j, key)?))
}

fn d_opt<'a, T>(
    j: &'a Json,
    key: &str,
    dec: impl FnOnce(&'a Json) -> Result<T, String>,
) -> Result<Option<T>, String> {
    match field(j, key)? {
        Json::Null => Ok(None),
        other => dec(other).map(Some),
    }
}

fn d_window(j: &Json) -> Result<BitWindowState, String> {
    let blocks = d_arr(j, "blocks")?
        .iter()
        .map(|b| d_u64_item(b, "window block"))
        .collect::<Result<Vec<u64>, String>>()?;
    Ok(BitWindowState {
        capacity: d_usize(j, "capacity")?,
        blocks,
        head: d_usize(j, "head")?,
        filled: d_usize(j, "filled")?,
        ones: d_usize(j, "ones")?,
    })
}

fn d_floats5(j: &Json, key: &str) -> Result<[f64; 5], String> {
    let arr = d_arr(j, key)?;
    if arr.len() != 5 {
        return Err(format!("`{key}` must have 5 markers"));
    }
    let mut out = [0.0; 5];
    for (slot, v) in out.iter_mut().zip(arr) {
        *slot = d_f64_item(v, key)?;
    }
    Ok(out)
}

fn d_quantile(j: &Json) -> Result<P2QuantileState, String> {
    Ok(P2QuantileState {
        heights: d_floats5(j, "heights")?,
        positions: d_floats5(j, "positions")?,
        desired: d_floats5(j, "desired")?,
        count: d_usize(j, "count")?,
    })
}

fn d_task_key(row: &[Json], spec: &AppSpec) -> Result<TaskKey, String> {
    let index = d_usize_item(&row[0], "estimator task index")?;
    let task = spec
        .task_id(index)
        .ok_or_else(|| format!("estimator task index {index} out of range"))?;
    let option = d_usize_item(&row[1], "estimator option")?;
    let option =
        u8::try_from(option).map_err(|_| format!("estimator option {option} too large"))?;
    Ok(TaskKey { task, option })
}

fn d_usize_item(j: &Json, what: &str) -> Result<usize, String> {
    let v = j
        .as_f64()
        .ok_or_else(|| format!("{what} must be a number"))?;
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::float_cmp
    )]
    if v >= 0.0 && v.fract() == 0.0 && v <= 2f64.powi(32) {
        Ok(v as usize)
    } else {
        Err(format!("{what} out of range: {v}"))
    }
}

fn d_estimator(j: &Json, spec: &AppSpec) -> Result<EstimatorState, String> {
    let kind = field(j, "kind")?
        .as_str()
        .ok_or("estimator `kind` must be a string")?;
    match kind {
        "stateless" => Ok(EstimatorState::Stateless),
        "avg_observed" => {
            let mut entries = Vec::new();
            for row in d_arr(j, "entries")? {
                let row = row.as_arr().ok_or("avg_observed entry must be an array")?;
                if row.len() != 4 {
                    return Err(String::from("avg_observed entry must have 4 elements"));
                }
                entries.push((
                    d_task_key(row, spec)?,
                    d_f64_item(&row[2], "avg_observed sum")?,
                    d_u64_item(&row[3], "avg_observed count")?,
                ));
            }
            Ok(EstimatorState::AvgObserved(entries))
        }
        "variable_cost" => {
            let mut entries = Vec::new();
            for row in d_arr(j, "entries")? {
                let row = row.as_arr().ok_or("variable_cost entry must be an array")?;
                if row.len() != 4 {
                    return Err(String::from("variable_cost entry must have 4 elements"));
                }
                entries.push((
                    d_task_key(row, spec)?,
                    d_quantile(&row[2])?,
                    d_f64_item(&row[3], "variable_cost base")?,
                ));
            }
            Ok(EstimatorState::VariableCost(entries))
        }
        other => Err(format!("unknown estimator kind `{other}`")),
    }
}

fn d_predictor(j: &Json) -> Result<PredictorState, String> {
    let kind = field(j, "kind")?
        .as_str()
        .ok_or("predictor `kind` must be a string")?;
    match kind {
        "stateless" => Ok(PredictorState::Stateless),
        "ewma" => Ok(PredictorState::Ewma(d_opt(j, "value", |v| {
            d_f64_item(v, "ewma value").map(Watts)
        })?)),
        other => Err(format!("unknown predictor kind `{other}`")),
    }
}

fn d_runtime(j: &Json, spec: &AppSpec) -> Result<RuntimeState, String> {
    let exec = d_arr(j, "exec")?
        .iter()
        .map(d_window)
        .collect::<Result<Vec<_>, String>>()?;
    let pid = field(j, "pid")?;
    let current_options = d_arr(j, "current_options")?
        .iter()
        .map(|o| {
            let v = d_usize_item(o, "current option")?;
            u8::try_from(v).map_err(|_| format!("current option {v} too large"))
        })
        .collect::<Result<Vec<u8>, String>>()?;
    Ok(RuntimeState {
        exec,
        arrivals: d_window(field(j, "arrivals")?)?,
        pid: PidState {
            integrator: d_f64(pid, "integrator")?,
            differentiator: d_f64(pid, "differentiator")?,
            prev_error: d_f64(pid, "prev_error")?,
            output: d_f64(pid, "output")?,
        },
        estimator: d_estimator(field(j, "estimator")?, spec)?,
        predictor: d_predictor(field(j, "predictor")?)?,
        last_prediction: d_opt(j, "last_prediction", |v| {
            let pair = v.as_arr().ok_or("`last_prediction` must be an array")?;
            if pair.len() != 2 {
                return Err(String::from("`last_prediction` must have 2 elements"));
            }
            Ok((
                d_usize_item(&pair[0], "predicted job")?,
                Seconds(d_f64_item(&pair[1], "predicted E[S]")?),
            ))
        })?,
        current_options,
    })
}

fn d_entry(j: &Json) -> Result<BufferEntry, String> {
    Ok(BufferEntry {
        captured_at: d_time(j, "captured_at")?,
        interesting: d_bool(j, "interesting")?,
    })
}

fn d_buffer(j: &Json) -> Result<InputBufferState, String> {
    let queues = d_arr(j, "queues")?
        .iter()
        .map(|q| {
            q.as_arr()
                .ok_or_else(|| String::from("buffer queue must be an array"))?
                .iter()
                .map(d_entry)
                .collect::<Result<Vec<_>, String>>()
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(InputBufferState {
        queues,
        in_flight: d_usize(j, "in_flight")?,
    })
}

fn d_job(j: &Json) -> Result<ActiveJobState, String> {
    let keeper = field(j, "keeper")?;
    Ok(ActiveJobState {
        job: d_usize(j, "job")?,
        option: d_usize(j, "option")?,
        entry: d_entry(field(j, "entry")?)?,
        task_index: d_opt(j, "task_index", |v| d_usize_item(v, "task_index"))?,
        remaining: d_duration(j, "remaining")?,
        full_latency: d_duration(j, "full_latency")?,
        keeper: ProgressKeeperState {
            snapshot: d_duration(keeper, "snapshot")?,
            since_checkpoint: d_duration(keeper, "since_checkpoint")?,
        },
        executed: d_arr(j, "executed")?
            .iter()
            .map(|b| match b {
                Json::Bool(v) => Ok(*v),
                _ => Err(String::from("executed flag must be a boolean")),
            })
            .collect::<Result<Vec<bool>, String>>()?,
        started_at: d_time(j, "started_at")?,
        task_started_at: d_time(j, "task_started_at")?,
        tx_wait: d_bool(j, "tx_wait")?,
    })
}

fn d_power(j: &Json) -> Result<PowerSystemState, String> {
    Ok(PowerSystemState {
        stored: Joules(d_f64(j, "stored")?),
        total_harvested: Joules(d_f64(j, "total_harvested")?),
        total_wasted: Joules(d_f64(j, "total_wasted")?),
        total_supplied: Joules(d_f64(j, "total_supplied")?),
    })
}

fn d_metrics(j: &Json) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let (counters, durations) = metric_fields(&mut m);
    for (key, v) in counters {
        *v = d_u64(j, key)?;
    }
    for (key, v) in durations {
        *v = d_duration(j, key)?;
    }
    let jobs = d_arr(j, "jobs_by_option")?;
    if jobs.len() != 4 {
        return Err(String::from("`jobs_by_option` must have 4 entries"));
    }
    for (slot, v) in m.jobs_by_option.iter_mut().zip(jobs) {
        *slot = d_u64_item(v, "jobs_by_option")?;
    }
    m.energy_harvested = Joules(d_f64(j, "energy_harvested")?);
    m.energy_wasted = Joules(d_f64(j, "energy_wasted")?);
    m.pending_interesting = d_u64(j, "pending_interesting")?;
    Ok(m)
}

fn d_uplink(j: &Json) -> Result<UplinkState, String> {
    let attempts = d_usize(j, "attempts")?;
    Ok(UplinkState {
        rng: d_u64(j, "rng")?,
        p_busy: d_f64(j, "p_busy")?,
        attempts: u32::try_from(attempts).map_err(|_| String::from("`attempts` too large"))?,
        window_index: d_u64(j, "window_index")?,
        window_used: d_u64(j, "window_used")?,
        log: d_arr(j, "log")?
            .iter()
            .map(|rec| {
                let rec = rec.as_arr().ok_or("tx record must be an array")?;
                if rec.len() != 2 {
                    return Err(String::from("tx record must have 2 elements"));
                }
                Ok(TxRecord {
                    start_slot: d_u64_item(&rec[0], "tx start slot")?,
                    slots: d_u64_item(&rec[1], "tx slot count")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?,
        total_airtime: d_duration(j, "total_airtime")?,
    })
}

/// Parses a `qz-snap/v2` document back into a [`SimState`].
///
/// `spec` must be the application spec of the simulation the snapshot
/// will be restored into; estimator task indices are validated against
/// it.
///
/// # Errors
///
/// Malformed JSON, a wrong or missing schema tag, missing fields, or
/// out-of-range indices produce a message naming the offending field.
pub fn from_json(text: &str, spec: &AppSpec) -> Result<SimState, String> {
    let j = Json::parse(text)?;
    let schema = field(&j, "schema")?
        .as_str()
        .ok_or("`schema` must be a string")?;
    if schema != SCHEMA {
        return Err(format!(
            "unsupported snapshot schema `{schema}` (want `{SCHEMA}`)"
        ));
    }
    Ok(SimState {
        now: d_time(&j, "now")?,
        on: d_bool(&j, "on")?,
        power: d_power(field(&j, "power")?)?,
        runtime: d_runtime(field(&j, "runtime")?, spec)?,
        buffer: d_buffer(field(&j, "buffer")?)?,
        job: d_opt(&j, "job", d_job)?,
        rng: d_u64(&j, "rng")?,
        metrics: d_metrics(field(&j, "metrics")?)?,
        uplink: d_opt(&j, "uplink", d_uplink)?,
        injector: d_opt(&j, "injector", |v| {
            Ok(InjectorState {
                words: d_arr(v, "words")?
                    .iter()
                    .map(|w| d_u64_item(w, "injector word"))
                    .collect::<Result<Vec<u64>, String>>()?,
            })
        })?,
        off_since: d_opt(&j, "off_since", |v| {
            d_u64_item(v, "off_since").map(SimTime::from_millis)
        })?,
        last_checkpoint_at: d_opt(&j, "last_checkpoint_at", |v| {
            d_u64_item(v, "last_checkpoint_at").map(SimTime::from_millis)
        })?,
        done: d_bool(&j, "done")?,
    })
}
