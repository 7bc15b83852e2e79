//! Extension X2: StreamMD for multi-site water models.
//!
//! Section 5.4 of the paper: "more advanced models use up to 6 charges…
//! In all those models the location of the charges is considered to be
//! fixed relative to the molecule and thus does not require any
//! additional memory bandwidth… They also lead to a significant increase
//! in arithmetic intensity. Consequently, Merrimac will provide better
//! performance for those more accurate models."
//!
//! This module generalizes the `expanded` stream pipeline to any
//! fixed-charge N-site model and measures that claim end to end: TIP5P
//! computes ~1.8× the flops of SPC while moving 1.57× the words, a
//! measured ~14% intensity gain. (The paper's stronger version of the
//! claim — *no* additional bandwidth — assumes virtual charge sites are
//! derived in-kernel from the three atom positions rather than gathered;
//! with that optimization the intensity gain would be the full 1.8×.
//! Deriving sites requires in-kernel virtual-site force redistribution
//! and is left as the documented next step.) Shift records here are a
//! single 3-vector per interaction — the per-atom replication of the
//! 3-site layout is a layout convention, not a requirement.

use std::sync::Arc;

use md_sim::multisite::MultiSiteField;
use md_sim::neighbor::NeighborList;
use md_sim::pbc::Pbc;
use md_sim::system::WaterBox;
use md_sim::vec3::Vec3;
use merrimac_arch::{MachineConfig, OpCosts};
use merrimac_kernel::builder::{KernelBuilder, V3};
use merrimac_kernel::ir::StreamMode;
use merrimac_kernel::Kernel;
use merrimac_sim::machine::SimError;
use merrimac_sim::program::Memory;
use merrimac_sim::{CompiledKernel, KernelOpt, ProgramBuilder, StreamProcessor};

/// Outcome of a multi-site force step.
#[derive(Debug, Clone)]
pub struct MultiSiteOutcome {
    pub forces: Vec<Vec3>,
    pub cycles: u64,
    pub solution_flops: u64,
    pub solution_gflops: f64,
    pub mem_refs: u64,
    /// Measured arithmetic intensity (interaction flops / memory word).
    pub intensity: f64,
    /// Flops per interaction for this model.
    pub flops_per_interaction: u64,
}

/// Build the expanded-style interaction kernel for an N-site model.
/// Launch parameters: the `sites²` qq table (row-major), then C6, C12.
pub fn multisite_expanded_kernel(ff: &MultiSiteField) -> Kernel {
    let ns = ff.sites;
    let rec = (3 * ns) as u32;
    let mut b = KernelBuilder::new(format!("streammd_multisite_{ns}"));
    let s_cpos = b.input("c_positions", rec, StreamMode::EveryIteration);
    let s_shift = b.input("shift", 3, StreamMode::EveryIteration);
    let s_npos = b.input("n_positions", rec, StreamMode::EveryIteration);
    let o_cf = b.output("c_partial", rec);
    let o_nf = b.output("n_partial", rec);

    // Parameters.
    let mut qq = Vec::with_capacity(ns * ns);
    for _ in 0..ns * ns {
        qq.push(b.param());
    }
    let c6 = b.param();
    let c12 = b.param();
    let one = b.constant(1.0);
    let six = b.constant(6.0);
    let twelve = b.constant(12.0);
    let zero = b.constant(0.0);
    let zv = V3 {
        x: zero,
        y: zero,
        z: zero,
    };

    // Accumulator registers keep the energies live.
    let r_ec = b.reg(0.0);
    let r_el = b.reg(0.0);
    let r_vir = b.reg(0.0);
    let ec0 = b.read_reg(r_ec);
    let el0 = b.read_reg(r_el);
    let vir0 = b.read_reg(r_vir);

    let shift = b.read_v3(s_shift, 0);
    let mut c_sites = Vec::with_capacity(ns);
    let mut n_sites = Vec::with_capacity(ns);
    for s in 0..ns {
        let c = b.read_v3(s_cpos, (3 * s) as u32);
        c_sites.push(b.v3_add(c, shift));
        n_sites.push(b.read_v3(s_npos, (3 * s) as u32));
    }

    let mut fc = vec![zv; ns];
    let mut fn_ = vec![zv; ns];
    let mut vcs = Vec::new();
    let mut de_lj = zero;
    let mut vir_term = zero;
    for a in 0..ns {
        for nb in 0..ns {
            let charged = ff.qq[a * ns + nb] != 0.0;
            let lj = a == 0 && nb == 0;
            if !charged && !lj {
                continue;
            }
            let d = b.v3_sub(c_sites[a], n_sites[nb]);
            let r2 = b.v3_norm2(d);
            let r = b.sqrt(r2);
            let rinv = b.div(one, r);
            let rinv2 = b.mul(rinv, rinv);
            let mut fs = zero;
            if charged {
                let vc = b.mul(qq[a * ns + nb], rinv);
                vcs.push(vc);
                fs = b.mul(vc, rinv2);
            }
            if lj {
                let rinv4 = b.mul(rinv2, rinv2);
                let rinv6 = b.mul(rinv4, rinv2);
                let v6 = b.mul(c6, rinv6);
                let rinv12 = b.mul(rinv6, rinv6);
                let v12 = b.mul(c12, rinv12);
                de_lj = b.sub(v12, v6);
                let t12 = b.mul(twelve, v12);
                let u = b.nmsub(six, v6, t12);
                let fs_lj = b.mul(u, rinv2);
                fs = if charged { b.add(fs, fs_lj) } else { fs_lj };
            }
            let f = b.v3_scale(d, fs);
            fc[a] = b.v3_add(fc[a], f);
            fn_[nb] = b.v3_sub(fn_[nb], f);
            if lj {
                let vx = b.mul(d.x, f.x);
                let vxy = b.madd(d.y, f.y, vx);
                vir_term = b.madd(d.z, f.z, vxy);
            }
        }
    }
    // Reductions into the registers (balanced tree, as in `kernels`).
    let mut vc_sum = zero;
    if !vcs.is_empty() {
        let mut level = vcs.clone();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for pair in level.chunks(2) {
                next.push(if pair.len() == 2 {
                    b.add(pair[0], pair[1])
                } else {
                    pair[0]
                });
            }
            level = next;
        }
        vc_sum = level[0];
    }
    let ec = b.add(ec0, vc_sum);
    let el = b.add(el0, de_lj);
    let vir = b.add(vir0, vir_term);
    b.set_reg(r_ec, ec);
    b.set_reg(r_el, el);
    b.set_reg(r_vir, vir);

    let fc_flat: Vec<_> = fc.iter().flat_map(|v| [v.x, v.y, v.z]).collect();
    let fn_flat: Vec<_> = fn_.iter().flat_map(|v| [v.x, v.y, v.z]).collect();
    b.write(o_cf, &fc_flat);
    b.write(o_nf, &fn_flat);
    b.build()
}

/// Canonical positions for an N-site model (plus one far dummy record).
fn canonical_positions_multi(system: &WaterBox) -> Vec<f64> {
    let pbc = system.pbc();
    let ns = system.num_sites();
    let n = system.num_molecules();
    let mut out = Vec::with_capacity((n + 1) * ns * 3);
    for m in 0..n {
        let mol = system.molecule(m);
        let o = pbc.wrap(mol[0]);
        for s in 0..ns {
            let p = if s == 0 {
                o
            } else {
                o + pbc.min_image(mol[s], mol[0])
            };
            out.extend_from_slice(&[p.x, p.y, p.z]);
        }
    }
    for s in 0..ns {
        let _ = s;
        out.extend_from_slice(&[-2.0e12, 0.0, 0.0]);
    }
    out
}

/// Run one expanded-layout force step for any N-site model on the
/// simulated machine.
pub fn run_multisite_step(
    cfg: &MachineConfig,
    system: &WaterBox,
    list: &NeighborList,
) -> Result<MultiSiteOutcome, SimError> {
    let ff = MultiSiteField::from_model(system.model());
    let ns = ff.sites;
    let rec = 3 * ns;
    let kernel = Arc::new(CompiledKernel::compile(
        multisite_expanded_kernel(&ff),
        cfg,
        &OpCosts::default(),
        KernelOpt::default(),
    ));
    let mut params = ff.qq.clone();
    params.push(ff.c6);
    params.push(ff.c12);

    let n = system.num_molecules();
    let pairs = list.flat_pairs();
    let mut mem = Memory::new();
    let positions = mem.region("positions", canonical_positions_multi(system));
    let pbc: Pbc = system.pbc();
    let shift_table: Vec<f64> = (0..Pbc::NUM_SHIFTS)
        .flat_map(|i| {
            let v = pbc.shift_vector(i);
            [v.x, v.y, v.z]
        })
        .collect();
    let shifts = mem.region("shift_table", shift_table);
    let forces = mem.region("forces", vec![0.0; (n + 1) * rec]);

    let mut pb = ProgramBuilder::new();
    let strip_iters =
        (cfg.srf_words_per_cluster * cfg.clusters / 3 / (4 * rec + 5)).clamp(16, 4096);
    for (sid, chunk) in pairs.chunks(strip_iters).enumerate() {
        pb.strip(sid);
        let i_central: Vec<u32> = chunk.iter().map(|(c, _, _)| *c).collect();
        let i_neighbor: Vec<u32> = chunk.iter().map(|(_, j, _)| *j).collect();
        let i_shift: Vec<u32> = chunk.iter().map(|(_, _, s)| *s as u32).collect();
        for (name, idx) in [
            ("i_central", &i_central),
            ("i_neighbor", &i_neighbor),
            ("i_shift", &i_shift),
        ] {
            let r = mem.region(
                &format!("{name}[{sid}]"),
                idx.iter().map(|&i| i as f64).collect(),
            );
            let buf = pb.buffer(&format!("{name}.{sid}"), 1);
            pb.load(format!("load {name} {sid}"), r, 1, 0, idx.len(), buf);
        }
        let b_cpos = pb.buffer(&format!("c_pos.{sid}"), rec);
        let b_shift = pb.buffer(&format!("shift.{sid}"), 3);
        let b_npos = pb.buffer(&format!("n_pos.{sid}"), rec);
        let b_cf = pb.buffer(&format!("c_partial.{sid}"), rec);
        let b_nf = pb.buffer(&format!("n_partial.{sid}"), rec);
        pb.gather(
            format!("gather c {sid}"),
            positions,
            rec,
            Arc::new(i_central.clone()),
            b_cpos,
        );
        pb.gather(
            format!("gather s {sid}"),
            shifts,
            3,
            Arc::new(i_shift.clone()),
            b_shift,
        );
        pb.gather(
            format!("gather n {sid}"),
            positions,
            rec,
            Arc::new(i_neighbor.clone()),
            b_npos,
        );
        pb.kernel(
            format!("interact {sid}"),
            kernel.clone(),
            vec![b_cpos, b_shift, b_npos],
            vec![b_cf, b_nf],
            params.clone(),
            chunk.len() as u64,
            (chunk.len() as u64).div_ceil(cfg.clusters as u64),
        );
        pb.scatter_add(
            format!("scatter c {sid}"),
            b_cf,
            forces,
            rec,
            Arc::new(i_central),
        );
        pb.scatter_add(
            format!("scatter n {sid}"),
            b_nf,
            forces,
            rec,
            Arc::new(i_neighbor),
        );
    }
    let program = pb.build();
    let report = StreamProcessor::new(cfg.clone()).run_parallel(&mut mem, &program, 1)?;

    let raw = mem.data(forces);
    let out_forces: Vec<Vec3> = (0..n * ns)
        .map(|site| Vec3::new(raw[site * 3], raw[site * 3 + 1], raw[site * 3 + 2]))
        .collect();
    let flops_per = ff.flops_per_interaction();
    let solution_flops = pairs.len() as u64 * flops_per;
    Ok(MultiSiteOutcome {
        forces: out_forces,
        cycles: report.cycles,
        solution_flops,
        solution_gflops: cfg.gflops(solution_flops, report.cycles),
        mem_refs: report.counters.mem_refs,
        intensity: solution_flops as f64 / report.counters.mem_refs.max(1) as f64,
        flops_per_interaction: flops_per,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_sim::multisite::compute_forces_multisite;
    use md_sim::neighbor::NeighborListParams;
    use md_sim::water::WaterModel;

    fn setup(model: WaterModel) -> (WaterBox, NeighborList) {
        let s = WaterBox::builder()
            .molecules(64)
            .model(model)
            .seed(91)
            .build();
        let params = NeighborListParams {
            cutoff: (0.45 * s.pbc().side()).min(1.0),
            skin: 0.0,
            rebuild_interval: 1,
        };
        let nl = NeighborList::build(&s, params);
        (s, nl)
    }

    fn check_against_reference(model: WaterModel) {
        let (s, nl) = setup(model);
        let out = run_multisite_step(&MachineConfig::default(), &s, &nl).expect("run");
        let reference = compute_forces_multisite(&s, &nl);
        let scale = reference
            .forces
            .iter()
            .map(|f| f.norm())
            .fold(1.0f64, f64::max);
        for (i, (got, want)) in out.forces.iter().zip(&reference.forces).enumerate() {
            let err = (*got - *want).max_abs();
            assert!(err < 1e-8 * scale, "site {i}: err {err:.2e}");
        }
    }

    #[test]
    fn spc_through_the_generalized_path() {
        check_against_reference(WaterModel::spc());
    }

    #[test]
    fn tip5p_through_the_machine() {
        check_against_reference(WaterModel::tip5p());
    }

    #[test]
    fn tip5p_has_higher_intensity_than_spc() {
        // The paper's Section 5.4 claim, measured end to end.
        let (s3, nl3) = setup(WaterModel::spc());
        let (s5, nl5) = setup(WaterModel::tip5p());
        let cfg = MachineConfig::default();
        let spc = run_multisite_step(&cfg, &s3, &nl3).unwrap();
        let tip5p = run_multisite_step(&cfg, &s5, &nl5).unwrap();
        assert!(
            tip5p.intensity > spc.intensity * 1.08,
            "TIP5P AI {:.2} vs SPC {:.2}",
            tip5p.intensity,
            spc.intensity
        );
        assert!(tip5p.flops_per_interaction > spc.flops_per_interaction);
    }
}
