//! Accuracy ablations for the design choices called out in DESIGN.md §5:
//!
//! 1. `E[S_q]` truncation (5 vs 20 vs all `Q` terms, §3.1),
//! 2. zone-side rounding in Eq. 5 (floor vs ceil vs round),
//! 3. critical path with vs without the routing-latency update (line 19),
//! 4. QSPR placement strategy (IIG-clustered vs row-major vs random).
//!
//! Each ablation reports the suite-average absolute error against the
//! default-configuration QSPR oracle (except 4, which ablates the oracle
//! itself and reports the latency impact).

use leqa::{Estimator, EstimatorOptions, ZoneRounding};
use leqa_circuit::{decompose::lower_to_ft, Qodg};
use leqa_fabric::{FabricDims, PhysicalParams};
use leqa_workloads::SUITE;
use qspr::{Mapper, MapperConfig, MovementModel, PlacementStrategy, RouterStrategy};

/// Benchmarks used for the ablations (a spread of families and sizes,
/// keeping the runtime reasonable).
const PICKS: [&str; 8] = [
    "8bitadder",
    "gf2^16mult",
    "hwb15ps",
    "ham15",
    "hwb50ps",
    "mod1048576adder",
    "gf2^64mult",
    "hwb100ps",
];

fn main() {
    let dims = FabricDims::dac13();
    let params = PhysicalParams::dac13();

    // Precompute QODGs and oracle latencies once.
    let mut cases = Vec::new();
    for name in PICKS {
        let bench = leqa_workloads::Benchmark::by_name(name).expect("known benchmark");
        let qodg = Qodg::from(lower_to_ft(&bench.circuit()).expect("suite lowers cleanly"));
        let actual = Mapper::new(dims, params.clone())
            .map(&qodg)
            .expect("fits the fabric")
            .latency
            .as_secs();
        cases.push((name, qodg, actual));
    }

    let avg_error = |options: EstimatorOptions| -> f64 {
        let estimator = Estimator::with_options(dims, params.clone(), options);
        let mut total = 0.0;
        for (_, qodg, actual) in &cases {
            let est = estimator.estimate(qodg).expect("fits the fabric");
            total += 100.0 * (est.latency.as_secs() - actual).abs() / actual;
        }
        total / cases.len() as f64
    };

    println!("Ablation 1: E[S_q] truncation (paper uses 20 terms)");
    for terms in [1usize, 5, 20, 4000] {
        let err = avg_error(EstimatorOptions {
            max_esq_terms: terms,
            ..Default::default()
        });
        let label = if terms >= 4000 {
            "all".to_string()
        } else {
            terms.to_string()
        };
        println!("  terms = {label:>4}: avg error {err:.2}%");
    }

    println!("\nAblation 2: zone-side rounding in Eq. 5");
    for (rounding, label) in [
        (ZoneRounding::Floor, "floor"),
        (ZoneRounding::Round, "round"),
        (ZoneRounding::Ceil, "ceil (default)"),
    ] {
        let err = avg_error(EstimatorOptions {
            zone_rounding: rounding,
            ..Default::default()
        });
        println!("  {label:<15}: avg error {err:.2}%");
    }

    println!("\nAblation 3: critical path with vs without the routing update (line 19)");
    for (update, label) in [(true, "updated (default)"), (false, "bare gate delays")] {
        let err = avg_error(EstimatorOptions {
            update_critical_path: update,
            ..Default::default()
        });
        println!("  {label:<18}: avg error {err:.2}%");
    }

    println!("\nAblation 4: QSPR placement strategy (oracle latency impact)");
    for (strategy, label) in [
        (PlacementStrategy::IigCluster, "iig-cluster (default)"),
        (PlacementStrategy::RowMajor, "row-major"),
        (PlacementStrategy::Random, "random"),
    ] {
        let mut ratio_sum = 0.0;
        for (_, qodg, baseline) in &cases {
            let mapper = Mapper::with_config(MapperConfig {
                dims,
                params: params.clone(),
                placement: strategy,
                router: Default::default(),
                movement: Default::default(),
                seed: 1,
            });
            let latency = mapper.map(qodg).expect("fits the fabric").latency.as_secs();
            ratio_sum += latency / baseline;
        }
        println!(
            "  {label:<22}: avg latency {:.2}x the default placement",
            ratio_sum / cases.len() as f64
        );
    }

    // On the paper's roomy 60x60 / N_c = 5 fabric the routing discipline
    // is immaterial (channels rarely saturate); constrain both to expose
    // the effect.
    println!("\nAblation 5: QSPR routing discipline (constrained 35x35 fabric, N_c = 1)");
    let tight_dims = FabricDims::new(35, 35).expect("valid dims");
    let tight_params = params
        .clone()
        .to_builder()
        .channel_capacity(1)
        .build()
        .expect("valid params");
    let fitting: Vec<&(&str, Qodg, f64)> = cases
        .iter()
        .filter(|(_, qodg, _)| (qodg.num_qubits() as u64) <= tight_dims.area())
        .collect();
    let tight_latency = |router: RouterStrategy, qodg: &Qodg| -> f64 {
        Mapper::with_config(MapperConfig {
            dims: tight_dims,
            params: tight_params.clone(),
            placement: PlacementStrategy::IigCluster,
            router,
            movement: Default::default(),
            seed: 0,
        })
        .map(qodg)
        .expect("fits the fabric")
        .latency
        .as_secs()
    };
    let xy_baselines: Vec<f64> = fitting
        .iter()
        .map(|(_, qodg, _)| tight_latency(RouterStrategy::Xy, qodg))
        .collect();
    for (router, label) in [
        (RouterStrategy::Xy, "xy (default)"),
        (RouterStrategy::Yx, "yx"),
        (RouterStrategy::Adaptive, "adaptive"),
    ] {
        let ratio_sum: f64 = fitting
            .iter()
            .zip(&xy_baselines)
            .map(|((_, qodg, _), &base)| tight_latency(router, qodg) / base)
            .sum();
        println!(
            "  {label:<22}: avg latency {:.3}x the xy router",
            ratio_sum / fitting.len().max(1) as f64
        );
    }

    println!("\nAblation 6: oracle movement model (LEQA error vs each oracle)");
    for (movement, label) in [
        (MovementModel::HomeBased, "home-based (default)"),
        (MovementModel::Drift, "drift"),
    ] {
        let estimator = Estimator::new(dims, params.clone());
        let mut total = 0.0;
        for (_, qodg, _) in &cases {
            let oracle = Mapper::with_config(MapperConfig {
                dims,
                params: params.clone(),
                placement: PlacementStrategy::IigCluster,
                router: RouterStrategy::Xy,
                movement,
                seed: 0,
            })
            .map(qodg)
            .expect("fits the fabric")
            .latency
            .as_secs();
            let est = estimator.estimate(qodg).expect("fits").latency.as_secs();
            total += 100.0 * (est - oracle).abs() / oracle;
        }
        println!(
            "  {label:<22}: LEQA avg error {:.2}%",
            total / cases.len() as f64
        );
    }

    let _ = &SUITE; // keep the suite linked for discoverability
}
