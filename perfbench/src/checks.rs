//! Output checks. A repetition with a failed check counts as a failed
//! operation and is not timed; `checks_ok_frac` is the share of
//! repetitions that passed.
//!
//! At every seed the benchmark checks invariants (frame conservation,
//! wire-vs-model agreement, identical output digests across repetitions
//! and between traced and untraced runs). At [`DEFAULT_SEED`] it also
//! compares each output digest with the one recorded in `golden.json`.

use crate::DEFAULT_SEED;
use iotlan_core::telemetry::fnv1a64;
use iotlan_core::util::json::{self, Value};
use std::collections::BTreeMap;

/// Output digests of one repetition, by artifact name.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Digests(BTreeMap<String, u64>);

impl Digests {
    pub fn add(&mut self, name: &str, bytes: &[u8]) {
        self.0.insert(name.to_string(), fnv1a64(bytes));
    }
}

pub struct Checks {
    workload: String,
    golden: Option<BTreeMap<String, String>>,
    failures: Vec<String>,
    /// The first repetition's digests; every later one must match them.
    reference: Option<Digests>,
}

impl Checks {
    pub fn new(workload: &str, seed: u64) -> Checks {
        let golden = (seed == DEFAULT_SEED).then(|| {
            let doc = json::from_str(include_str!("../golden.json")).expect("golden.json parses");
            doc.get(workload)
                .and_then(Value::as_object)
                .map(|entries| {
                    entries
                        .iter()
                        .map(|(k, v)| (k.clone(), v.as_str().unwrap_or("").to_string()))
                        .collect()
                })
                .unwrap_or_default()
        });
        Checks {
            workload: workload.to_string(),
            golden,
            failures: Vec::new(),
            reference: None,
        }
    }

    /// Record one check; `what` describes it when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.failures.push(what());
        }
        ok
    }

    /// Check that `a == b`, naming both values when they differ.
    pub fn equal<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, a: T, b: T) -> bool {
        let ok = a == b;
        self.check(ok, || format!("{what}: {a:?} != {b:?}"))
    }

    /// Compare a repetition's digests with the run's first repetition and,
    /// at the default seed, with the recorded ones.
    pub fn digests(&mut self, label: &str, digests: Digests) -> bool {
        let mut ok = true;
        match &self.reference {
            None => self.reference = Some(digests.clone()),
            Some(reference) => {
                let same = *reference == digests;
                ok &= self.check(same, || {
                    format!("{label}: output digests differ from the first repetition")
                });
            }
        }
        let mismatched: Option<Vec<String>> = self.golden.as_ref().map(|golden| {
            digests
                .0
                .iter()
                .filter(|(name, value)| golden.get(*name) != Some(&format!("{value:016x}")))
                .map(|(name, value)| format!("{name}={value:016x}"))
                .chain(
                    golden
                        .keys()
                        .filter(|name| !digests.0.contains_key(*name))
                        .map(|name| format!("{name} missing")),
                )
                .collect()
        });
        if let Some(mismatched) = mismatched {
            let workload = self.workload.clone();
            ok &= self.check(mismatched.is_empty(), || {
                format!("{label}: digests differ from golden.json[{workload}]: {mismatched:?}")
            });
        }
        ok
    }

    /// Failed checks so far; a repetition compares this before and after.
    pub fn failed(&self) -> usize {
        self.failures.len()
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}
