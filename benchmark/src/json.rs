//! Shorthands for building `serde_json::Value` trees (the vendored
//! shim has no `json!` macro).

use serde_json::{Number, Value};

pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn num(x: f64) -> Value {
    Value::Number(Number::F64(x))
}

pub fn int(x: u64) -> Value {
    Value::Number(Number::U64(x))
}

pub fn text(s: &str) -> Value {
    Value::String(s.to_string())
}
