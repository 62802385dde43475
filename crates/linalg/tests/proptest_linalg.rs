//! Property-based tests for the linear-algebra substrate: invariants that
//! must hold for *any* well-formed input, checked over randomized cases.

use std::cell::Cell;
use vdc_check::{check, from_fn, prop_assert, prop_assert_eq, vec_of, Gen, TestRng};
use vdc_linalg::poly as poly_mod;
use vdc_linalg::poly::Poly;
use vdc_linalg::{lstsq, lstsq_eq, BoxQp, Cholesky, Lu, Matrix, Qr, Vector};

const CASES: u32 = 64;

/// A diagonally dominant (well-conditioned) n×n matrix.
fn gen_dominant_matrix(rng: &mut TestRng, n: usize) -> Matrix {
    let data = (0..n * n).map(|_| rng.f64_in(-1.0, 1.0)).collect();
    let mut m = Matrix::from_vec(n, n, data);
    for i in 0..n {
        m[(i, i)] += n as f64 + 1.0;
    }
    m
}

fn gen_vector(rng: &mut TestRng, n: usize) -> Vector {
    Vector::from_vec((0..n).map(|_| rng.f64_in(-10.0, 10.0)).collect())
}

/// `(dominant matrix, rhs vector)` with shared size drawn from `[lo, hi)`.
fn square_system(lo: usize, hi: usize) -> impl Gen<Value = (Matrix, Vector)> {
    from_fn(move |rng: &mut TestRng| {
        let n = rng.usize_in(lo, hi);
        (gen_dominant_matrix(rng, n), gen_vector(rng, n))
    })
}

/// `(dominant matrix, linear term, box bound)` for the QP properties. The
/// linear term is wide enough that about half the minimizers lie on the
/// box and half inside it.
fn qp_instance() -> impl Gen<Value = (Matrix, Vec<f64>, f64)> {
    from_fn(|rng: &mut TestRng| {
        let n = rng.usize_in(2, 6);
        let a = gen_dominant_matrix(rng, n);
        let f = (0..n).map(|_| rng.f64_in(-20.0, 20.0)).collect();
        (a, f, rng.f64_in(0.1, 2.0))
    })
}

#[test]
fn lu_solve_residual_small() {
    check(CASES, &square_system(2, 8), |(a, b)| {
        let x = Lu::new(a).unwrap().solve(b).unwrap();
        let r = &a.matvec(&x).unwrap() - b;
        prop_assert!(r.max_abs() < 1e-9, "residual {}", r.max_abs());
        Ok(())
    });
}

#[test]
fn lu_det_matches_inverse_consistency() {
    let gen = from_fn(|rng: &mut TestRng| {
        let n = rng.usize_in(2, 6);
        gen_dominant_matrix(rng, n)
    });
    check(CASES, &gen, |a| {
        let lu = Lu::new(a).unwrap();
        let det = lu.det();
        prop_assert!(det.abs() > 1e-9);
        let inv = lu.inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        let eye = Matrix::identity(a.rows());
        prop_assert!((&prod - &eye).max_abs() < 1e-8);
        Ok(())
    });
}

#[test]
fn cholesky_agrees_with_lu_on_spd() {
    check(CASES, &square_system(2, 7), |(a, b)| {
        // AᵀA + I is SPD.
        let mut spd = a.gram();
        spd.add_diag_mut(1.0);
        let x_ch = Cholesky::new(&spd).unwrap().solve(b).unwrap();
        let x_lu = Lu::new(&spd).unwrap().solve(b).unwrap();
        let diff = &x_ch - &x_lu;
        prop_assert!(diff.max_abs() < 1e-8);
        Ok(())
    });
}

#[test]
fn qr_least_squares_is_optimal() {
    let gen = from_fn(|rng: &mut TestRng| {
        let n = rng.usize_in(2, 5);
        let rows = n + 4;
        let data = (0..rows * n).map(|_| rng.f64_in(-1.0, 1.0)).collect();
        let mut m = Matrix::from_vec(rows, n, data);
        // Strengthen the diagonal block for full column rank.
        for i in 0..n {
            m[(i, i)] += 3.0;
        }
        let b = (0..rows).map(|_| rng.f64_in(-5.0, 5.0)).collect::<Vec<_>>();
        (m, b)
    });
    check(CASES, &gen, |(a, b_data)| {
        let b = Vector::from_vec(b_data.clone());
        let x = Qr::new(a).unwrap().solve(&b).unwrap();
        let base = (&a.matvec(&x).unwrap() - &b).norm();
        // Perturb each coordinate: the residual must not improve.
        for i in 0..x.len() {
            for d in [-1e-3, 1e-3] {
                let mut xp = x.clone();
                xp[i] += d;
                let r = (&a.matvec(&xp).unwrap() - &b).norm();
                prop_assert!(r >= base - 1e-9, "perturbation improved residual");
            }
        }
        Ok(())
    });
}

#[test]
fn lstsq_eq_constraint_is_satisfied() {
    let gen = from_fn(|rng: &mut TestRng| {
        let n = rng.usize_in(3, 6);
        (
            gen_dominant_matrix(rng, n),
            gen_vector(rng, n),
            rng.f64_in(-5.0, 5.0),
        )
    });
    check(CASES, &gen, |(a, b, d)| {
        // One constraint: sum of x equals d.
        let n = a.rows();
        let c = Matrix::filled(1, n, 1.0);
        let x = lstsq_eq(a, b, &c, &Vector::from_slice(&[*d])).unwrap();
        let sum: f64 = x.as_slice().iter().sum();
        prop_assert!((sum - d).abs() < 1e-6, "constraint violated: {sum} vs {d}");
        Ok(())
    });
}

#[test]
fn lstsq_exact_system_recovers_solution() {
    check(CASES, &square_system(2, 7), |(a, x_true)| {
        let b = a.matvec(x_true).unwrap();
        let x = lstsq(a, &b).unwrap();
        let diff = &x - x_true;
        prop_assert!(diff.max_abs() < 1e-8);
        Ok(())
    });
}

#[test]
fn poly_roots_reproduce_polynomial() {
    check(
        CASES,
        &vec_of(vdc_check::f64_range(-0.95, 0.95), 1, 6),
        |roots: &Vec<f64>| {
            // Build from roots, find roots, evaluate at found roots: |p| small.
            let p = Poly::from_roots(roots);
            let found = p.roots().unwrap();
            prop_assert_eq!(found.len(), roots.len());
            for z in found {
                let v = p.eval_complex(z).abs();
                prop_assert!(v < 1e-5, "residual at root {v}");
            }
            Ok(())
        },
    );
}

#[test]
fn poly_mul_is_eval_compatible() {
    let gen = (
        vec_of(vdc_check::f64_range(-3.0, 3.0), 1, 5),
        vec_of(vdc_check::f64_range(-3.0, 3.0), 1, 5),
        vdc_check::f64_range(-2.0, 2.0),
    );
    check(CASES, &gen, |(c1, c2, x)| {
        let p = poly_mod::Poly::new(c1.clone());
        let q = poly_mod::Poly::new(c2.clone());
        let prod = p.mul(&q);
        let lhs = prod.eval(*x);
        let rhs = p.eval(*x) * q.eval(*x);
        prop_assert!((lhs - rhs).abs() < 1e-9 * (1.0 + rhs.abs()));
        Ok(())
    });
}

#[test]
fn box_qp_solution_is_feasible_and_optimal() {
    check(CASES, &qp_instance(), |(a, f_data, bound)| {
        let n = a.rows();
        let mut h = a.gram();
        h.add_diag_mut(0.5);
        let f = Vector::from_vec(f_data.clone());
        let lb = vec![-bound; n];
        let ub = vec![*bound; n];
        let qp = BoxQp::new(h, f, lb.clone(), ub.clone()).unwrap();
        let sol = qp.solve().unwrap();
        // Feasible.
        for i in 0..n {
            prop_assert!(sol.x[i] >= lb[i] - 1e-9 && sol.x[i] <= ub[i] + 1e-9);
        }
        // Not beaten by projected random perturbations.
        for i in 0..n {
            for d in [-1e-3, 1e-3] {
                let mut xp = sol.x.clone();
                xp[i] = (xp[i] + d).clamp(lb[i], ub[i]);
                prop_assert!(qp.objective(&xp) >= sol.objective - 1e-7);
            }
        }
        Ok(())
    });
}

/// Independent-solver equivalence: Hildreth's dual coordinate ascent and
/// the primal active-set method must agree on random SPD box QPs, both
/// where the minimizer is interior (the dual stays at zero) and where a
/// bound is active (the dual has to ascend).
#[test]
fn hildreth_agrees_with_active_set() {
    let (interior, on_box) = (Cell::new(0), Cell::new(0));
    check(48, &qp_instance(), |(a, f_data, bound)| {
        let n = a.rows();
        let mut h = a.gram();
        h.add_diag_mut(0.5);
        let f = Vector::from_vec(f_data.clone());
        let lb = vec![-bound; n];
        let ub = vec![*bound; n];
        let qp = BoxQp::new(h.clone(), f.clone(), lb.clone(), ub.clone()).unwrap();
        let active = qp.solve().unwrap();
        let count = if (0..n).any(|i| active.x[i] <= lb[i] || active.x[i] >= ub[i]) {
            &on_box
        } else {
            &interior
        };
        count.set(count.get() + 1);
        let dual = vdc_linalg::hildreth_solve(&h, &f, &lb, &ub, 50_000, 1e-13).unwrap();
        prop_assert!(
            dual.converged,
            "the Hildreth oracle did not converge in {} iterations",
            dual.iterations
        );
        // Objectives must match (solutions may differ only on flats, which
        // an SPD Hessian rules out).
        let obj_dual = qp.objective(&dual.x);
        prop_assert!(
            (obj_dual - active.objective).abs() <= 1e-5 * (1.0 + active.objective.abs()),
            "dual {} vs active-set {}",
            obj_dual,
            active.objective
        );
        for i in 0..n {
            prop_assert!(
                (dual.x[i] - active.x[i]).abs() < 1e-4,
                "x[{i}]: {} vs {}",
                dual.x[i],
                active.x[i]
            );
        }
        Ok(())
    });
    assert!(interior.get() > 0, "no case had an interior minimizer");
    assert!(on_box.get() > 0, "no case had an active bound");
}
