//! Spec-file round trips: every `FreqPolicy` variant must survive
//! serialization through an `ExperimentSpec` JSON (the `freqscale-run`
//! interchange format), and every committed spec under `specs/` must parse.

use std::collections::BTreeMap;

use gpu_freq_scaling::archsim::MegaHertz;
use gpu_freq_scaling::freqscale::{ExperimentSpec, FreqPolicy, FreqTable};
use gpu_freq_scaling::online::OnlineTunerConfig;
use gpu_freq_scaling::sph::FuncId;

fn every_policy() -> Vec<FreqPolicy> {
    let mut table = FreqTable::new();
    table.insert(FuncId::XMass, MegaHertz(1050));
    table.insert(FuncId::MomentumEnergy, MegaHertz(1410));
    let custom = OnlineTunerConfig {
        coarse_step: 6,
        max_freq: Some(MegaHertz(1380)),
        ..Default::default()
    };
    vec![
        FreqPolicy::Baseline,
        FreqPolicy::Static(MegaHertz(1110)),
        FreqPolicy::Dvfs,
        FreqPolicy::ManDyn(table),
        FreqPolicy::ManDynOnline(OnlineTunerConfig::default()),
        FreqPolicy::ManDynOnline(custom),
        FreqPolicy::ManDynPredictive(Default::default()),
    ]
}

#[test]
fn every_policy_variant_round_trips_through_a_spec_file() {
    for policy in every_policy() {
        let mut spec = ExperimentSpec::minihpc_turbulence(policy.clone(), 4);
        spec.power_cap_w = Some(300.0);
        spec.table_store = Some(std::path::PathBuf::from("tables"));
        let json = serde_json::to_string_pretty(&spec).expect("spec serializes");
        let back: ExperimentSpec = serde_json::from_str(&json).expect("spec parses back");
        assert_eq!(back.policy, policy, "policy must survive the round trip");
        assert_eq!(back.steps, spec.steps);
        assert_eq!(back.power_cap_w, Some(300.0));
        assert_eq!(back.table_store, spec.table_store);
    }
}

#[test]
fn mandyn_online_defaults_parse_from_an_empty_config() {
    // The documented spec-file shorthand: `{"ManDynOnline": {}}`.
    let policy: FreqPolicy = serde_json::from_str(r#"{"ManDynOnline": {}}"#).expect("parses");
    assert_eq!(
        policy,
        FreqPolicy::ManDynOnline(OnlineTunerConfig::default())
    );
}

#[test]
fn specs_without_the_online_fields_still_parse() {
    // The pre-online spec files committed under specs/ carry neither
    // `power_cap_w` nor `table_store`; both must default to off.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("specs/minihpc_baseline.json");
    let body = std::fs::read_to_string(&path).expect("readable spec");
    assert!(
        !body.contains("power_cap_w"),
        "legacy spec predates the field"
    );
    let back: ExperimentSpec = serde_json::from_str(&body).expect("legacy spec parses");
    assert_eq!(back.power_cap_w, None);
    assert_eq!(back.table_store, None);
}

#[test]
fn committed_spec_files_parse_and_cover_the_online_policy() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("specs");
    let mut labels = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("specs/ exists") {
        let path = entry.expect("entry").path();
        if path.extension().map(|e| e != "json").unwrap_or(true) {
            continue;
        }
        let body = std::fs::read_to_string(&path).expect("readable spec");
        let spec: ExperimentSpec = serde_json::from_str(&body)
            .unwrap_or_else(|e| panic!("{} must parse: {e}", path.display()));
        labels.push(spec.policy.label());
    }
    labels.sort();
    assert!(labels.contains(&"baseline".to_string()));
    assert!(labels.contains(&"mandyn-online".to_string()));
}

#[test]
fn learned_tables_round_trip_as_stored_json() {
    // The TableStore payload reuses the same FuncId/MegaHertz serde as the
    // policy table, so a stored file is valid ManDyn input.
    let mut table: BTreeMap<FuncId, MegaHertz> = BTreeMap::new();
    for f in FuncId::ALL {
        table.insert(f, MegaHertz(1005 + (f as u32 % 5) * 15));
    }
    let json = serde_json::to_string(&table).expect("serializes");
    let back: BTreeMap<FuncId, MegaHertz> = serde_json::from_str(&json).expect("parses");
    assert_eq!(back, table);
    let policy = FreqPolicy::ManDyn(back);
    assert_eq!(policy.label(), "mandyn");
}
