//! `BENCHMARK.json` as the program reads it: the one place where metric
//! names, units, directions and regression bounds are declared.

use mlec_runner::Json;

/// The ledger as committed, compiled in so the declared names cannot drift
/// from the ones the binary emits without a test noticing.
pub const LEDGER_TEXT: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median an end-to-end metric may worsen by;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

impl Ledger {
    pub fn load() -> Ledger {
        Ledger::parse(LEDGER_TEXT).expect("the committed BENCHMARK.json is well-formed")
    }

    pub fn parse(text: &str) -> Result<Ledger, String> {
        let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not a list"))
        };
        let text_of = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricDecl>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricDecl {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        higher_is_better: match text_of(m, "better")?.as_str() {
                            "higher" => true,
                            "lower" => false,
                            other => return Err(format!("BENCHMARK.json: better=`{other}`")),
                        },
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Ledger {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_u64)
                .ok_or("BENCHMARK.json: no `run_seconds`")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The declaration of `name`, end-to-end or per-layer.
    pub fn metric(&self, name: &str) -> Option<&MetricDecl> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

/// Units of quantities read off the host's clock or memory. A metric in any
/// other unit is a count or a virtual-time reading and must repeat exactly
/// for a fixed seed.
pub const WALL_UNITS: [&str; 8] = ["s", "ms", "us", "ns", "GB/s", "1/s", "ratio", "MiB"];

pub fn is_exact_unit(unit: &str) -> bool {
    !WALL_UNITS.contains(&unit)
}
