//! Differential suite: [`vgs_for_current_lanes_on`] must return, lane for
//! lane, exactly what [`Mosfet::vgs_for_current`] returns — the same
//! `to_bits` on success and the same error otherwise — on every compiled
//! kernel the host can run, for every lane-group size, in every region the
//! bisection can converge in.

use spicelite::mosfet::{
    model_035um, model_90nm, vgs_for_current_lanes, vgs_for_current_lanes_on, BiasRequest,
    MosGeometry, MosModel, MosType, Mosfet, Region,
};
use spicelite::simd::{Kernel, LANES};
use spicelite::SpiceError;

/// Seeded LCG returning uniform values in `[0, 1)`.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next()
    }
}

fn cards() -> [MosModel; 4] {
    [
        model_035um(MosType::Nmos),
        model_035um(MosType::Pmos),
        model_90nm(MosType::Nmos),
        model_90nm(MosType::Pmos),
    ]
}

/// A device on `card` with random geometry and a random process perturbation.
fn device(rng: &mut Lcg, card: MosModel) -> Mosfet {
    let l_min = if card.tox < 5e-9 { 0.1e-6 } else { 0.35e-6 };
    let geometry = MosGeometry::new(
        rng.range(1e-6, 300e-6),
        rng.range(l_min, 4.0 * l_min),
        if rng.next() < 0.2 { 2.0 } else { 1.0 },
    )
    .unwrap();
    let model = card.perturbed(
        rng.range(-0.2e-9, 0.2e-9),
        rng.range(-0.05, 0.05),
        rng.range(-5e-9, 5e-9),
        rng.range(-5e-9, 5e-9),
        rng.range(-0.1, 0.1),
        rng.range(-0.1, 0.1),
        rng.range(-0.1, 0.1),
    );
    Mosfet::new(model, geometry)
}

/// A request whose solution lies in the named region (for the ones that
/// converge): subthreshold currents, small `vds` against large currents,
/// and moderate currents at generous `vds`.
fn request(rng: &mut Lcg, card: MosModel, region: Region) -> BiasRequest {
    let device = device(rng, card);
    let (id_target, vds) = match region {
        Region::Cutoff => (10f64.powf(rng.range(-12.0, -8.0)), rng.range(0.05, 1.5)),
        Region::Triode => (10f64.powf(rng.range(-4.0, -2.5)), rng.range(0.01, 0.08)),
        Region::Saturation => (10f64.powf(rng.range(-6.0, -3.5)), rng.range(0.5, 2.0)),
    };
    BiasRequest {
        device,
        id_target,
        vds,
        vsb: if rng.next() < 0.3 {
            rng.range(0.0, 0.6)
        } else {
            0.0
        },
    }
}

/// Requests that must fail: non-positive targets and unreachable currents.
fn error_request(rng: &mut Lcg, card: MosModel, k: usize) -> BiasRequest {
    let mut r = request(rng, card, Region::Saturation);
    match k % 3 {
        0 => r.id_target = 0.0,
        1 => r.id_target = -rng.range(1e-9, 1e-3),
        _ => {
            r.device.geometry = MosGeometry::new(0.5e-6, 10e-6, 1.0).unwrap();
            r.id_target = 1.0;
        }
    }
    r
}

fn assert_same(got: &Result<f64, SpiceError>, want: &Result<f64, SpiceError>, ctx: &str) {
    match (got, want) {
        (Ok(a), Ok(b)) => assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: {a} vs {b}"),
        (
            Err(SpiceError::DcNoConvergence {
                iterations: ia,
                residual: ra,
            }),
            Err(SpiceError::DcNoConvergence {
                iterations: ib,
                residual: rb,
            }),
        ) => {
            assert_eq!(ia, ib, "{ctx}");
            assert_eq!(ra.to_bits(), rb.to_bits(), "{ctx}");
        }
        (a, b) => assert_eq!(a, b, "{ctx}"),
    }
}

/// Solves `requests` on `kernel` and checks every lane against the scalar
/// bisection.
fn check_group(kernel: Kernel, requests: &[BiasRequest], ctx: &str) {
    let mut got: Vec<Result<f64, SpiceError>> = vec![Ok(f64::NAN); requests.len()];
    vgs_for_current_lanes_on(kernel, requests, &mut got);
    for (k, (r, g)) in requests.iter().zip(&got).enumerate() {
        let want = r.device.vgs_for_current(r.id_target, r.vds, r.vsb);
        assert_same(g, &want, &format!("{ctx} {kernel:?} lane {k}"));
    }
}

#[test]
fn lanes_match_scalar_in_every_region_on_every_kernel() {
    let kernels = Kernel::available();
    assert_eq!(
        kernels[0],
        Kernel::Generic,
        "the generic kernel is always run"
    );
    let mut rng = Lcg(0x5eed_b1a5);
    let mut converged = [0usize; 3];
    for card in cards() {
        for (ri, region) in [Region::Cutoff, Region::Triode, Region::Saturation]
            .into_iter()
            .enumerate()
        {
            for group in 0..40 {
                let requests: Vec<_> = (0..LANES)
                    .map(|_| request(&mut rng, card, region))
                    .collect();
                for r in &requests {
                    // Triode targets at tiny vds can be out of reach of a
                    // small device; those lanes exercise the error path.
                    if let Ok(vgs) = r.device.vgs_for_current(r.id_target, r.vds, r.vsb) {
                        if r.device.operating_point(vgs, r.vds, r.vsb).region == region {
                            converged[ri] += 1;
                        }
                    }
                }
                for &kernel in &kernels {
                    check_group(
                        kernel,
                        &requests,
                        &format!("{card:?} {region:?} group {group}"),
                    );
                }
            }
        }
    }
    // Most requests land in the region they were drawn for; every region
    // must be well represented.
    assert!(
        converged.iter().all(|&c| c > 500),
        "solutions per region (cutoff, triode, saturation): {converged:?}"
    );
}

#[test]
fn error_lanes_match_scalar_errors() {
    let mut rng = Lcg(0xe44_0e44);
    for card in cards() {
        for group in 0..20 {
            // Errors mixed with healthy lanes, in varying positions.
            let requests: Vec<_> = (0..LANES)
                .map(|k| {
                    if (k + group) % 3 == 0 {
                        error_request(&mut rng, card, k + group)
                    } else {
                        request(&mut rng, card, Region::Saturation)
                    }
                })
                .collect();
            for r in requests
                .iter()
                .filter(|r| r.id_target <= 0.0 || r.id_target == 1.0)
            {
                assert!(r.device.vgs_for_current(r.id_target, r.vds, r.vsb).is_err());
            }
            for kernel in Kernel::available() {
                check_group(kernel, &requests, &format!("{card:?} error group {group}"));
            }
        }
    }
}

#[test]
fn every_group_size_matches_scalar() {
    let mut rng = Lcg(0x51_2e5);
    let regions = [Region::Cutoff, Region::Triode, Region::Saturation];
    for size in 1..=LANES {
        for group in 0..30 {
            let requests: Vec<_> = (0..size)
                .map(|k| {
                    let card = cards()[(k + group) % 4];
                    if (k * 7 + group) % 11 == 0 {
                        error_request(&mut rng, card, k + group)
                    } else {
                        request(&mut rng, card, regions[(k + group) % 3])
                    }
                })
                .collect();
            for kernel in Kernel::available() {
                check_group(kernel, &requests, &format!("size {size} group {group}"));
            }
        }
    }
}

#[test]
fn detected_kernel_entry_point_matches_scalar() {
    let mut rng = Lcg(0xde7ec7);
    let requests: Vec<_> = (0..7)
        .map(|k| request(&mut rng, cards()[k % 4], Region::Saturation))
        .collect();
    let mut got = vec![Ok(0.0); requests.len()];
    vgs_for_current_lanes(&requests, &mut got);
    for (k, (r, g)) in requests.iter().zip(&got).enumerate() {
        let want = r.device.vgs_for_current(r.id_target, r.vds, r.vsb);
        assert_same(g, &want, &format!("detected kernel lane {k}"));
    }
}

#[test]
#[should_panic(expected = "at most")]
fn more_than_lanes_requests_panic() {
    let mut rng = Lcg(1);
    let requests: Vec<_> = (0..=LANES)
        .map(|_| request(&mut rng, cards()[0], Region::Saturation))
        .collect();
    let mut out = vec![Ok(0.0); requests.len()];
    vgs_for_current_lanes(&requests, &mut out);
}
