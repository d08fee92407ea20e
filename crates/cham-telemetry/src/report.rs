//! JSON views of the counter and histogram registries — the `counters`
//! and `timers` objects of a [`RunRecord`](crate::record::RunRecord).
//! Both registries are keyed by name, so no key appears twice.

use crate::json::JsonValue;
use crate::{counters, histogram};

/// Counter snapshot as a JSON object (`{"name": value, ...}`).
#[must_use]
pub fn counters_json() -> JsonValue {
    JsonValue::Object(
        counters::snapshot()
            .into_iter()
            .map(|(name, value)| (name.to_string(), JsonValue::UInt(value)))
            .collect(),
    )
}

/// Histogram snapshots as a JSON object keyed by span name, each entry
/// carrying count/sum/min/max/mean and quantile upper bounds in ns.
#[must_use]
pub fn histograms_json() -> JsonValue {
    JsonValue::Object(
        histogram::snapshot()
            .into_iter()
            .map(|h| {
                let entry = JsonValue::Object(vec![
                    ("unit".into(), JsonValue::from(h.unit)),
                    ("count".into(), JsonValue::UInt(h.count)),
                    ("sum".into(), JsonValue::UInt(h.sum_nanos)),
                    (
                        "min".into(),
                        JsonValue::UInt(if h.count == 0 { 0 } else { h.min_nanos }),
                    ),
                    ("max".into(), JsonValue::UInt(h.max_nanos)),
                    ("mean".into(), JsonValue::Float(h.mean_nanos())),
                    (
                        "p50_upper".into(),
                        JsonValue::UInt(h.quantile_upper_nanos(0.5)),
                    ),
                    (
                        "p95_upper".into(),
                        JsonValue::UInt(h.quantile_upper_nanos(0.95)),
                    ),
                ]);
                (h.name.to_string(), entry)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_with_and_without_data() {
        let _guard = crate::test_guard();
        crate::counter_add!("cham_telemetry.report.test_counter", 5);
        {
            crate::time_scope!("cham_telemetry.report.test_span");
            std::hint::black_box(0);
        }
        let timers = histograms_json();
        let span = timers.get("cham_telemetry.report.test_span").expect("span");
        assert_eq!(span.get("count").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(span.get("unit").and_then(JsonValue::as_str), Some("ns"));
        assert!(span.get("p50_upper").is_some());
        assert!(counters_json()
            .to_string()
            .contains("\"cham_telemetry.report.test_counter\":5"));
        // A reset keeps the names and renders them empty: an empty
        // histogram's `min` reads 0, not its `u64::MAX` sentinel.
        crate::reset();
        let timers = histograms_json();
        let span = timers.get("cham_telemetry.report.test_span").expect("span");
        assert_eq!(span.get("count").and_then(JsonValue::as_u64), Some(0));
        assert_eq!(span.get("min").and_then(JsonValue::as_u64), Some(0));
        assert!(counters_json()
            .to_string()
            .contains("\"cham_telemetry.report.test_counter\":0"));
    }
}
