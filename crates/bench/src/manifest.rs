//! The manifest reader behind `repro serve`, `repro online` and
//! `repro dse`: field readers whose errors carry the field's path
//! (`engine: …`, `jobs[i]: …`, `cluster.shards[i]: …`, `mem[i]: …`), and
//! the pieces the manifests share — the MAC kind, the memory preset plus
//! bandwidth, the worker count, per-tenant SLO targets and the job spec
//! (network, precision, tenant, deadline).

use std::collections::BTreeMap;

use bsc_accel::{AcceleratorConfig, PrecisionPolicy, SloTarget};
use bsc_mac::MacKind;
use bsc_nn::{models, SharedNetwork};
use bsc_systolic::{DramBandwidth, MemConfig};
use bsc_telemetry::JsonValue;

/// `"{context}: {detail}"`: every manifest error names where it happened.
pub(crate) fn err_at(context: &str, detail: impl std::fmt::Display) -> String {
    format!("{context}: {detail}")
}

/// Parses a manifest document; syntax errors are reported under
/// `manifest`.
pub(crate) fn parse(text: &str) -> Result<JsonValue, String> {
    bsc_telemetry::parse_json(text).map_err(|e| err_at("manifest", e))
}

/// `obj[key]` as a non-negative integer, `None` when absent.
pub(crate) fn u64_field(obj: &JsonValue, ctx: &str, key: &str) -> Result<Option<u64>, String> {
    obj.get(key)
        .map(|v| {
            v.as_f64()
                .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                .map(|n| n as u64)
                .ok_or_else(|| err_at(ctx, format!("{key}: expected a non-negative integer")))
        })
        .transpose()
}

/// [`u64_field`] that also rejects zero.
pub(crate) fn positive_field(obj: &JsonValue, ctx: &str, key: &str) -> Result<Option<u64>, String> {
    match u64_field(obj, ctx, key)? {
        Some(0) => Err(err_at(ctx, format!("{key}: must be positive"))),
        n => Ok(n),
    }
}

/// A [`positive_field`] the manifest must give.
pub(crate) fn required_positive(obj: &JsonValue, ctx: &str, key: &str) -> Result<u64, String> {
    positive_field(obj, ctx, key)?
        .ok_or_else(|| err_at(ctx, format!("{key}: expected a positive integer")))
}

/// `obj[key]` as a non-empty array, read item by item: `item(i, value,
/// ctx)` with `ctx` = `prefix.key[i]` (`key[i]` at the top level).
/// `None` when absent.
pub(crate) fn array_field<T>(
    obj: &JsonValue,
    prefix: &str,
    key: &str,
    mut item: impl FnMut(usize, &JsonValue, &str) -> Result<T, String>,
) -> Result<Option<Vec<T>>, String> {
    let path = if prefix.is_empty() { key.to_owned() } else { format!("{prefix}.{key}") };
    match obj.get(key).and_then(JsonValue::as_array) {
        None => Ok(None),
        Some([]) => Err(err_at(&path, "expected a non-empty array")),
        Some(a) => a
            .iter()
            .enumerate()
            .map(|(i, v)| item(i, v, &format!("{path}[{i}]")))
            .collect::<Result<_, _>>()
            .map(Some),
    }
}

/// `obj[key]` as a string, `default` when absent.
pub(crate) fn str_or<'a>(obj: &'a JsonValue, key: &str, default: &'a str) -> &'a str {
    obj.get(key).and_then(JsonValue::as_str).unwrap_or(default)
}

/// An array item that must be a string.
pub(crate) fn str_item<'a>(v: &'a JsonValue, ctx: &str) -> Result<&'a str, String> {
    v.as_str().ok_or_else(|| err_at(ctx, "expected a string"))
}

/// `obj.workers`: the worker count, if given (never affects results).
pub(crate) fn workers_field(obj: &JsonValue, ctx: &str) -> Result<Option<usize>, String> {
    Ok(positive_field(obj, ctx, "workers")?.map(|w| w as usize))
}

/// A MAC architecture tag, `bsc|lpc|hps` in any case.
pub(crate) fn mac_kind(tag: &str) -> Result<MacKind, String> {
    match tag.to_ascii_lowercase().as_str() {
        "bsc" => Ok(MacKind::Bsc),
        "lpc" => Ok(MacKind::Lpc),
        "hps" => Ok(MacKind::Hps),
        other => Err(format!("unknown architecture `{other}` (bsc|lpc|hps)")),
    }
}

/// The accelerator `obj` names: `kind` (default `bsc`) in its paper
/// configuration, or the reduced one when `quick` is `true`.
pub(crate) fn accelerator(obj: &JsonValue, ctx: &str) -> Result<AcceleratorConfig, String> {
    let kind =
        mac_kind(str_or(obj, "kind", "bsc")).map_err(|e| err_at(ctx, format!("kind: {e}")))?;
    Ok(match obj.get("quick") {
        Some(JsonValue::Bool(true)) => AcceleratorConfig::quick(kind),
        _ => AcceleratorConfig::paper(kind),
    })
}

/// The memory hierarchy `obj` names: the preset under `key`
/// (`infinite|edge`, `default` when absent) with the optional
/// `bandwidth_bytes_per_cycle` override.
pub(crate) fn mem_field(
    obj: &JsonValue,
    ctx: &str,
    key: &str,
    default: &str,
) -> Result<MemConfig, String> {
    let mut mem = match str_or(obj, key, default) {
        "infinite" => MemConfig::infinite(),
        "edge" => MemConfig::edge(),
        other => {
            return Err(err_at(ctx, format!("{key}: unknown preset `{other}` (infinite|edge)")))
        }
    };
    if let Some(bw) = positive_field(obj, ctx, "bandwidth_bytes_per_cycle")? {
        mem = mem.with_bandwidth(DramBandwidth::BytesPerCycle(bw));
    }
    Ok(mem)
}

/// The optional top-level `tenants` object: SLO targets by tenant name.
pub(crate) fn tenants(doc: &JsonValue) -> Result<BTreeMap<String, SloTarget>, String> {
    let mut tenants = BTreeMap::new();
    let Some(t) = doc.get("tenants") else {
        return Ok(tenants);
    };
    let JsonValue::Object(members) = t else {
        return Err("manifest: `tenants` must be an object".into());
    };
    for (tenant, spec) in members {
        let ctx = format!("tenants.{tenant}");
        let latency_p99_cycles = u64_field(spec, &ctx, "latency_p99_cycles")?
            .ok_or_else(|| err_at(&ctx, "latency_p99_cycles: expected a non-negative integer"))?;
        let min_goodput = match spec.get("min_goodput") {
            None => 0.0,
            Some(v) => v
                .as_f64()
                .filter(|g| (0.0..=1.0).contains(g))
                .ok_or_else(|| err_at(&ctx, "min_goodput: expected a number in 0..=1"))?,
        };
        tenants.insert(tenant.clone(), SloTarget { latency_p99_cycles, min_goodput });
    }
    Ok(tenants)
}

/// What one serve job or one online source runs: its `name` (or the
/// caller's default), `network`, `precision` (default: as trained),
/// `tenant` and `deadline_cycles`.
pub(crate) struct JobSpec {
    pub(crate) name: String,
    pub(crate) network: SharedNetwork,
    pub(crate) policy: PrecisionPolicy,
    pub(crate) tenant: Option<String>,
    pub(crate) deadline_cycles: Option<u64>,
}

/// Reads the job fields of `spec`.  `networks` holds one allocation per
/// network name, so specs naming the same network share it.
pub(crate) fn job_spec(
    spec: &JsonValue,
    ctx: &str,
    default_name: impl FnOnce() -> String,
    networks: &mut BTreeMap<String, SharedNetwork>,
) -> Result<JobSpec, String> {
    let net_name = spec
        .get("network")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| err_at(ctx, "missing `network`"))?;
    let network = match networks.get(net_name) {
        Some(n) => SharedNetwork::clone(n),
        None => {
            let n = lookup_network(net_name).map_err(|e| err_at(ctx, e))?;
            networks.insert(net_name.to_owned(), SharedNetwork::clone(&n));
            n
        }
    };
    let policy = match spec.get("precision").and_then(JsonValue::as_str) {
        None => PrecisionPolicy::AsTrained,
        Some(s) => s.parse().map_err(|e| err_at(ctx, format!("precision: {e}")))?,
    };
    let tenant = spec
        .get("tenant")
        .map(|v| {
            v.as_str().map(str::to_owned).ok_or_else(|| err_at(ctx, "tenant: expected a string"))
        })
        .transpose()?;
    Ok(JobSpec {
        name: spec.get("name").and_then(JsonValue::as_str).map_or_else(default_name, str::to_owned),
        network,
        policy,
        tenant,
        deadline_cycles: u64_field(spec, ctx, "deadline_cycles")?,
    })
}

fn lookup_network(name: &str) -> Result<SharedNetwork, String> {
    let net = match name.trim().to_ascii_lowercase().replace(['-', '_'], "").as_str() {
        "lenet5" | "lenet" => models::lenet5(),
        "vgg16" | "vgg" => models::vgg16(),
        "resnet18" | "resnet" => models::resnet18(),
        "nas" | "nasbased" | "nasvgg" => models::nas_based(),
        "micro" | "micromlp" => models::micro(),
        other => {
            return Err(format!(
                "unknown network `{other}` (expected lenet5|vgg16|resnet18|nas|micro)"
            ))
        }
    };
    Ok(net.into_shared())
}
