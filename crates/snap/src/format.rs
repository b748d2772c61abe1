//! The versioned `qz-snap/v1` wire format.
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
    TelemetrySample, UplinkState,
};
use qz_types::json::Json;
use qz_types::{Joules, Seconds, SimDuration, SimTime, Watts};
use std::fmt::Write as _;

/// Schema tag every `qz-snap/v1` document opens with.
pub const SCHEMA: &str = "qz-snap/v1";

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// A `u64` as a decimal JSON string (bit-exact through the f64-based
/// reader).
fn u(out: &mut String, v: u64) {
    let _ = write!(out, "\"{v}\"");
}

/// An `f64` as the decimal rendering of its bit pattern.
fn f(out: &mut String, v: f64) {
    u(out, v.to_bits());
}

fn opt<T>(out: &mut String, v: Option<&T>, enc: impl FnOnce(&mut String, &T)) {
    match v {
        None => out.push_str("null"),
        Some(inner) => enc(out, inner),
    }
}

fn window(out: &mut String, w: &BitWindowState) {
    let _ = write!(out, "{{\"capacity\":{},\"blocks\":[", w.capacity);
    for (i, b) in w.blocks.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        u(out, *b);
    }
    let _ = write!(
        out,
        "],\"head\":{},\"filled\":{},\"ones\":{}}}",
        w.head, w.filled, w.ones
    );
}

fn quantile(out: &mut String, q: &P2QuantileState) {
    for (key, arr) in [
        ("heights", &q.heights),
        ("positions", &q.positions),
        ("desired", &q.desired),
    ] {
        let _ = write!(
            out,
            "{}\"{key}\":[",
            if key == "heights" { "{" } else { "," }
        );
        for (i, v) in arr.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            f(out, *v);
        }
        out.push(']');
    }
    let _ = write!(out, ",\"count\":{}}}", q.count);
}

fn estimator(out: &mut String, e: &EstimatorState) {
    match e {
        EstimatorState::Stateless => out.push_str("{\"kind\":\"stateless\"}"),
        EstimatorState::AvgObserved(entries) => {
            out.push_str("{\"kind\":\"avg_observed\",\"entries\":[");
            for (i, (key, sum, count)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{},{},", key.task.index(), key.option);
                f(out, *sum);
                out.push(',');
                u(out, *count);
                out.push(']');
            }
            out.push_str("]}");
        }
        EstimatorState::VariableCost(entries) => {
            out.push_str("{\"kind\":\"variable_cost\",\"entries\":[");
            for (i, (key, q, base)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{},{},", key.task.index(), key.option);
                quantile(out, q);
                out.push(',');
                f(out, *base);
                out.push(']');
            }
            out.push_str("]}");
        }
    }
}

fn predictor(out: &mut String, p: &PredictorState) {
    match p {
        PredictorState::Stateless => out.push_str("{\"kind\":\"stateless\"}"),
        PredictorState::Ewma(v) => {
            out.push_str("{\"kind\":\"ewma\",\"value\":");
            opt(out, v.as_ref(), |o, w| f(o, w.0));
            out.push('}');
        }
    }
}

fn runtime(out: &mut String, r: &RuntimeState) {
    out.push_str("{\"exec\":[");
    for (i, w) in r.exec.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        window(out, w);
    }
    out.push_str("],\"arrivals\":");
    window(out, &r.arrivals);
    out.push_str(",\"pid\":{\"integrator\":");
    f(out, r.pid.integrator);
    out.push_str(",\"differentiator\":");
    f(out, r.pid.differentiator);
    out.push_str(",\"prev_error\":");
    f(out, r.pid.prev_error);
    out.push_str(",\"output\":");
    f(out, r.pid.output);
    out.push_str("},\"estimator\":");
    estimator(out, &r.estimator);
    out.push_str(",\"predictor\":");
    predictor(out, &r.predictor);
    out.push_str(",\"last_prediction\":");
    opt(out, r.last_prediction.as_ref(), |o, (job, s)| {
        let _ = write!(o, "[{job},");
        f(o, s.0);
        o.push(']');
    });
    out.push_str(",\"current_options\":[");
    for (i, o) in r.current_options.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{o}");
    }
    out.push_str("]}");
}

fn entry(out: &mut String, e: &BufferEntry) {
    out.push_str("{\"captured_at\":");
    u(out, e.captured_at.as_millis());
    let _ = write!(out, ",\"interesting\":{}}}", e.interesting);
}

fn buffer(out: &mut String, b: &InputBufferState) {
    let _ = write!(out, "{{\"in_flight\":{},\"queues\":[", b.in_flight);
    for (i, q) in b.queues.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, e) in q.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            entry(out, e);
        }
        out.push(']');
    }
    out.push_str("]}");
}

fn keeper(out: &mut String, k: &ProgressKeeperState) {
    out.push_str("{\"snapshot\":");
    u(out, k.snapshot.as_millis());
    out.push_str(",\"since_checkpoint\":");
    u(out, k.since_checkpoint.as_millis());
    out.push('}');
}

fn job(out: &mut String, j: &ActiveJobState) {
    let _ = write!(
        out,
        "{{\"job\":{},\"option\":{},\"entry\":",
        j.job, j.option
    );
    entry(out, &j.entry);
    out.push_str(",\"task_index\":");
    match j.task_index {
        None => out.push_str("null"),
        Some(i) => {
            let _ = write!(out, "{i}");
        }
    }
    out.push_str(",\"remaining\":");
    u(out, j.remaining.as_millis());
    out.push_str(",\"full_latency\":");
    u(out, j.full_latency.as_millis());
    out.push_str(",\"keeper\":");
    keeper(out, &j.keeper);
    out.push_str(",\"executed\":[");
    for (i, ran) in j.executed.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{ran}");
    }
    out.push_str("],\"started_at\":");
    u(out, j.started_at.as_millis());
    out.push_str(",\"task_started_at\":");
    u(out, j.task_started_at.as_millis());
    let _ = write!(out, ",\"tx_wait\":{}}}", j.tx_wait);
}

fn power(out: &mut String, p: &PowerSystemState) {
    out.push_str("{\"stored\":");
    f(out, p.stored.value());
    out.push_str(",\"total_harvested\":");
    f(out, p.total_harvested.value());
    out.push_str(",\"total_wasted\":");
    f(out, p.total_wasted.value());
    out.push_str(",\"total_supplied\":");
    f(out, p.total_supplied.value());
    out.push('}');
}

fn metrics(out: &mut String, m: &Metrics) {
    out.push('{');
    let counters: [(&str, u64); 33] = [
        ("frames_total", m.frames_total),
        ("interesting_total", m.interesting_total),
        ("frames_missed_off", m.frames_missed_off),
        ("interesting_missed_off", m.interesting_missed_off),
        ("frames_filtered", m.frames_filtered),
        ("arrivals", m.arrivals),
        ("stored", m.stored),
        ("ibo_discards", m.ibo_discards),
        ("ibo_interesting", m.ibo_interesting),
        ("ibo_while_off", m.ibo_while_off),
        ("ibo_during_full_job", m.ibo_during_full_job),
        ("ibo_during_degraded_job", m.ibo_during_degraded_job),
        ("false_negatives", m.false_negatives),
        ("true_negatives", m.true_negatives),
        ("reports_interesting_high", m.reports_interesting_high),
        ("reports_interesting_low", m.reports_interesting_low),
        ("reports_uninteresting_high", m.reports_uninteresting_high),
        ("reports_uninteresting_low", m.reports_uninteresting_low),
        ("tx_grants", m.tx_grants),
        ("tx_busy_backoffs", m.tx_busy_backoffs),
        ("tx_duty_deferrals", m.tx_duty_deferrals),
        ("ibo_predictions", m.ibo_predictions),
        ("checkpoints", m.checkpoints),
        ("power_failures", m.power_failures),
        ("restores", m.restores),
        ("occupancy_ms", m.occupancy_ms),
        ("faults_power", m.faults_power),
        ("faults_checkpoint", m.faults_checkpoint),
        ("faults_adc", m.faults_adc),
        ("faults_clock", m.faults_clock),
        ("faults_burst", m.faults_burst),
        ("faults_jam", m.faults_jam),
        ("pending", m.pending),
    ];
    for (key, v) in counters {
        let _ = write!(out, "\"{key}\":");
        u(out, v);
        out.push(',');
    }
    let durations: [(&str, SimDuration); 8] = [
        ("tx_backoff_wait", m.tx_backoff_wait),
        ("tx_airtime", m.tx_airtime),
        ("delivery_latency_total", m.delivery_latency_total),
        ("delivery_latency_max", m.delivery_latency_max),
        ("reexecuted", m.reexecuted),
        ("time_on", m.time_on),
        ("time_off", m.time_off),
        ("sim_time", m.sim_time),
    ];
    for (key, v) in durations {
        let _ = write!(out, "\"{key}\":");
        u(out, v.as_millis());
        out.push(',');
    }
    out.push_str("\"jobs_by_option\":[");
    for (i, v) in m.jobs_by_option.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        u(out, *v);
    }
    out.push_str("],\"energy_harvested\":");
    f(out, m.energy_harvested.value());
    out.push_str(",\"energy_wasted\":");
    f(out, m.energy_wasted.value());
    out.push_str(",\"pending_interesting\":");
    u(out, m.pending_interesting);
    out.push('}');
}

fn sample(out: &mut String, s: &TelemetrySample) {
    out.push_str("{\"t\":");
    u(out, s.t.as_millis());
    out.push_str(",\"irradiance\":");
    f(out, s.irradiance);
    out.push_str(",\"stored\":");
    f(out, s.stored.value());
    let _ = write!(
        out,
        ",\"on\":{},\"occupancy\":{},\"lambda\":",
        s.on, s.occupancy
    );
    f(out, s.lambda);
    out.push_str(",\"correction\":");
    f(out, s.correction);
    out.push_str(",\"active_option\":");
    match s.active_option {
        None => out.push_str("null"),
        Some(o) => {
            let _ = write!(out, "{o}");
        }
    }
    out.push_str(",\"ibo_discards\":");
    u(out, s.ibo_discards);
    out.push('}');
}

fn uplink(out: &mut String, s: &UplinkState) {
    out.push_str("{\"rng\":");
    u(out, s.rng);
    out.push_str(",\"p_busy\":");
    f(out, s.p_busy);
    let _ = write!(out, ",\"attempts\":{},\"window_index\":", s.attempts);
    u(out, s.window_index);
    out.push_str(",\"window_used\":");
    u(out, s.window_used);
    out.push_str(",\"log\":[");
    for (i, rec) in s.log.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        u(out, rec.start_slot);
        out.push(',');
        u(out, rec.slots);
        out.push(']');
    }
    out.push_str("],\"total_airtime\":");
    u(out, s.total_airtime.as_millis());
    out.push('}');
}

/// Serializes a [`SimState`] as a single-line `qz-snap/v1` JSON object.
pub fn to_json(state: &SimState) -> String {
    let mut out = String::with_capacity(4096);
    let _ = write!(out, "{{\"schema\":\"{SCHEMA}\",\"now\":");
    u(&mut out, state.now.as_millis());
    let _ = write!(out, ",\"on\":{},\"power\":", state.on);
    power(&mut out, &state.power);
    out.push_str(",\"runtime\":");
    runtime(&mut out, &state.runtime);
    out.push_str(",\"buffer\":");
    buffer(&mut out, &state.buffer);
    out.push_str(",\"job\":");
    opt(&mut out, state.job.as_ref(), job);
    out.push_str(",\"rng\":");
    u(&mut out, state.rng);
    out.push_str(",\"metrics\":");
    metrics(&mut out, &state.metrics);
    out.push_str(",\"telemetry\":");
    opt(&mut out, state.telemetry.as_ref(), |o, samples| {
        o.push('[');
        for (i, s) in samples.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            sample(o, s);
        }
        o.push(']');
    });
    out.push_str(",\"uplink\":");
    opt(&mut out, state.uplink.as_ref(), uplink);
    out.push_str(",\"injector\":");
    opt(&mut out, state.injector.as_ref(), |o, inj| {
        o.push_str("{\"words\":[");
        for (i, w) in inj.words.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            u(o, *w);
        }
        o.push_str("]}");
    });
    out.push_str(",\"off_since\":");
    opt(&mut out, state.off_since.as_ref(), |o, t| {
        u(o, t.as_millis())
    });
    out.push_str(",\"last_checkpoint_at\":");
    opt(&mut out, state.last_checkpoint_at.as_ref(), |o, t| {
        u(o, t.as_millis());
    });
    let _ = write!(out, ",\"done\":{}}}", state.done);
    out
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

fn field<'a>(j: &'a Json, key: &str) -> Result<&'a Json, String> {
    j.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn d_u64(j: &Json, key: &str) -> Result<u64, String> {
    field(j, key)?
        .as_str()
        .ok_or_else(|| format!("`{key}` must be a decimal string"))?
        .parse::<u64>()
        .map_err(|e| format!("`{key}`: {e}"))
}

fn d_f64(j: &Json, key: &str) -> Result<f64, String> {
    Ok(f64::from_bits(d_u64(j, key)?))
}

fn d_f64_item(j: &Json, what: &str) -> Result<f64, String> {
    Ok(f64::from_bits(
        j.as_str()
            .ok_or_else(|| format!("{what} must be a bit-pattern string"))?
            .parse::<u64>()
            .map_err(|e| format!("{what}: {e}"))?,
    ))
}

fn d_u64_item(j: &Json, what: &str) -> Result<u64, String> {
    j.as_str()
        .ok_or_else(|| format!("{what} must be a decimal string"))?
        .parse::<u64>()
        .map_err(|e| format!("{what}: {e}"))
}

fn d_usize(j: &Json, key: &str) -> Result<usize, String> {
    let v = field(j, key)?
        .as_f64()
        .ok_or_else(|| format!("`{key}` must be a number"))?;
    // Shape fields are small exact integers; reject anything else.
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::float_cmp
    )]
    if v >= 0.0 && v.fract() == 0.0 && v <= 2f64.powi(32) {
        Ok(v as usize)
    } else {
        Err(format!("`{key}` out of range: {v}"))
    }
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
    let jobs = d_arr(j, "jobs_by_option")?;
    if jobs.len() != 4 {
        return Err(String::from("`jobs_by_option` must have 4 entries"));
    }
    let mut jobs_by_option = [0u64; 4];
    for (slot, v) in jobs_by_option.iter_mut().zip(jobs) {
        *slot = d_u64_item(v, "jobs_by_option")?;
    }
    Ok(Metrics {
        frames_total: d_u64(j, "frames_total")?,
        interesting_total: d_u64(j, "interesting_total")?,
        frames_missed_off: d_u64(j, "frames_missed_off")?,
        interesting_missed_off: d_u64(j, "interesting_missed_off")?,
        frames_filtered: d_u64(j, "frames_filtered")?,
        arrivals: d_u64(j, "arrivals")?,
        stored: d_u64(j, "stored")?,
        ibo_discards: d_u64(j, "ibo_discards")?,
        ibo_interesting: d_u64(j, "ibo_interesting")?,
        ibo_while_off: d_u64(j, "ibo_while_off")?,
        ibo_during_full_job: d_u64(j, "ibo_during_full_job")?,
        ibo_during_degraded_job: d_u64(j, "ibo_during_degraded_job")?,
        false_negatives: d_u64(j, "false_negatives")?,
        true_negatives: d_u64(j, "true_negatives")?,
        reports_interesting_high: d_u64(j, "reports_interesting_high")?,
        reports_interesting_low: d_u64(j, "reports_interesting_low")?,
        reports_uninteresting_high: d_u64(j, "reports_uninteresting_high")?,
        reports_uninteresting_low: d_u64(j, "reports_uninteresting_low")?,
        tx_grants: d_u64(j, "tx_grants")?,
        tx_busy_backoffs: d_u64(j, "tx_busy_backoffs")?,
        tx_duty_deferrals: d_u64(j, "tx_duty_deferrals")?,
        tx_backoff_wait: d_duration(j, "tx_backoff_wait")?,
        tx_airtime: d_duration(j, "tx_airtime")?,
        delivery_latency_total: d_duration(j, "delivery_latency_total")?,
        delivery_latency_max: d_duration(j, "delivery_latency_max")?,
        jobs_by_option,
        ibo_predictions: d_u64(j, "ibo_predictions")?,
        checkpoints: d_u64(j, "checkpoints")?,
        power_failures: d_u64(j, "power_failures")?,
        restores: d_u64(j, "restores")?,
        reexecuted: d_duration(j, "reexecuted")?,
        time_on: d_duration(j, "time_on")?,
        time_off: d_duration(j, "time_off")?,
        sim_time: d_duration(j, "sim_time")?,
        occupancy_ms: d_u64(j, "occupancy_ms")?,
        energy_harvested: Joules(d_f64(j, "energy_harvested")?),
        energy_wasted: Joules(d_f64(j, "energy_wasted")?),
        faults_power: d_u64(j, "faults_power")?,
        faults_checkpoint: d_u64(j, "faults_checkpoint")?,
        faults_adc: d_u64(j, "faults_adc")?,
        faults_clock: d_u64(j, "faults_clock")?,
        faults_burst: d_u64(j, "faults_burst")?,
        faults_jam: d_u64(j, "faults_jam")?,
        pending: d_u64(j, "pending")?,
        pending_interesting: d_u64(j, "pending_interesting")?,
    })
}

fn d_sample(j: &Json) -> Result<TelemetrySample, String> {
    Ok(TelemetrySample {
        t: d_time(j, "t")?,
        irradiance: d_f64(j, "irradiance")?,
        stored: Joules(d_f64(j, "stored")?),
        on: d_bool(j, "on")?,
        occupancy: d_usize(j, "occupancy")?,
        lambda: d_f64(j, "lambda")?,
        correction: d_f64(j, "correction")?,
        active_option: d_opt(j, "active_option", |v| d_usize_item(v, "active_option"))?,
        ibo_discards: d_u64(j, "ibo_discards")?,
    })
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

/// Parses a `qz-snap/v1` document back into a [`SimState`].
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
        telemetry: d_opt(&j, "telemetry", |v| {
            v.as_arr()
                .ok_or_else(|| String::from("`telemetry` must be an array"))?
                .iter()
                .map(d_sample)
                .collect::<Result<Vec<_>, String>>()
        })?,
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
