//! # Paper → implementation map
//!
//! A navigation aid from every labeled object in *Solomonik, Ballard,
//! Demmel, Hoefler — "A Communication-Avoiding Parallel Algorithm for
//! the Symmetric Eigenvalue Problem" (SPAA'17)* to the code that
//! realizes it. Recorded deviations live in `DESIGN.md` §8; measured
//! results in `EXPERIMENTS.md`.
//!
//! ## §II — Theoretical cost model
//!
//! | Paper object | Implementation |
//! |---|---|
//! | BSP machine, parameters `p, M, H, γ, β, ν, α` | [`ca_bsp::MachineParams`] |
//! | Metered quantities `F, W, Q, S`; `T = γF + βW + νQ + αS` | [`ca_bsp::Costs`], [`ca_bsp::Costs::time`] |
//! | Per-superstep maxima `Σᵢ maxⱼ` | [`ca_bsp::Machine::fence`] (phase folding) |
//! | Subgroup concurrency (disjoint exchanges share supersteps) | [`ca_bsp::Machine::step`] |
//!
//! ## §III — Building blocks
//!
//! | Paper object | Implementation |
//! |---|---|
//! | Lemma III.1 (sequential MM, cache traffic) | [`ca_dla::gemm`], [`ca_dla::costs::gemm_vert`] |
//! | Lemma III.2 (rectangular parallel MM, parameter `v`) | [`ca_pla::carma::carma`]; claims `carma.W.over-lemma.{1d,3d}` against [`ca_eigen::model::mm_recursive`] |
//! | Algorithm III.1 (Streaming-MM, replicated operand) | [`ca_pla::streaming::streaming_mm_dense`] (the replication itself: [`ca_pla::streaming::Replicated`]) |
//! | Lemma III.3 (its cost) | cache-aware charging inside `streaming_mm_view_into`; model in [`ca_eigen::model::mm_streaming`] |
//! | Lemma III.4 (sequential QR) | [`ca_dla::qr::qr_factor`] — the lemma's own recursive formulation (split the columns, factor left, update right by GEMM, factor right, merge `T₁₂ = −T₁₁·(U₁ᵀU₂)·T₂₂` by GEMM; no block size), which also serves every bulge chase, TSQR leaf and the input generator; its `Q` charge is [`ca_dla::costs::qr_vert`] |
//! | Lemma III.5 (square QR) | [`ca_pla::rect_qr::rect_qr`] — a nearly square input is the same column recursion, and `rect_qr_tree`'s `m ≤ 2n` nodes call it; a separate entry point would be an assert in front of that call (substitution: DESIGN.md §8.1) |
//! | Algorithm III.2 (rect-QR, row tree) | [`ca_pla::rect_qr::rect_qr_tree`] (verbatim) and [`ca_pla::rect_qr::rect_qr`] (the column-recursive variant §III.B sanctions; used by the eigensolver) |
//! | Theorem III.6 (rect-QR cost) | claims `rect-qr.*`, `rect-qr.W.over-theorem.tall`, `rect-qr-tree.W.over-column` in `conformance::claims`; model in [`ca_eigen::model::qr_rectangular`] |
//! | Corollary III.7 (Householder reconstruction) | [`ca_pla::reconstruct::reconstruct`], [`ca_dla::lu::lu_nopivot_signed`], [`ca_pla::lu::dist_lu_signed`] |
//! | TSQR \[16\] | [`ca_pla::tsqr`] |
//! | SUMMA \[25\] | [`ca_pla::streaming`] — Streaming-MM is the replicated SUMMA variant the solver runs; no plain 2D SUMMA is implemented |
//!
//! ## §IV — Symmetric eigensolvers
//!
//! | Paper object | Implementation |
//! |---|---|
//! | Eqn. (IV.1)/(IV.2) (aggregated two-sided update) | Algorithm IV.1's lines 5, 8 and 9 in [`ca_eigen::full_to_band`]: `A + U⁽⁰⁾V⁽⁰⁾ᵀ + V⁽⁰⁾U⁽⁰⁾ᵀ` is never formed — line 5 applies it to the current column panel, line 8 to the product `A̅₂₂U₁`, and line 9 forms the `V₁` that joins the aggregates |
//! | Algorithm IV.1 (2.5D-Full-to-Band) | [`ca_eigen::try_full_to_band`] |
//! | Lemma IV.1 (its cost) | claims `full-to-band.*` (the `√c` gain: `full-to-band.gain.c4`); model in [`ca_eigen::model::full_to_band`] |
//! | Algorithm IV.2 (2.5D-Band-to-Band) | [`ca_eigen::try_band_to_band`] (groups, phases, charges; line 16 on `p·h/n` processors via [`ca_pla::rect_qr`]); the exact index ranges (lines 8–14) live in [`ca_dla::bulge::chase_plan_iter`], lines 16–22 in the one banded kernel under [`ca_dla::bulge::reduce_band_pass`] — the walk CA-SBR, Lang and the finale's pass share |
//! | Figure 2 (pipeline phases `2i+j`) | [`ca_dla::bulge::ChaseOp::phase`]; the figure's two concurrent sets are the unit test `band_to_band::tests::phases_seven_and_eight_are_figure2` |
//! | Lemma IV.2 / CA-SBR \[12\] | [`ca_eigen::ca_sbr`] |
//! | Lemma IV.3 (band-to-band cost) | claims `band-to-band.*`; model in [`ca_eigen::model::band_to_band`] |
//! | Lang band→tridiagonal \[36\] (ELPA stage 2) | [`ca_eigen::lang::lang_band_to_tridiagonal`] |
//! | Algorithm IV.3 (complete eigensolver) | [`ca_eigen::try_symm_eigen_25d`] |
//! | Theorem IV.4 (its cost) | claims `solver.*` and, against the baselines, `scalapack.*` / `elpa.W.p`; model in [`ca_eigen::model::eigensolver`] |
//! | Table I baselines (ScaLAPACK \[15\], ELPA \[13\]\[37\]) | [`ca_eigen::baselines`] |
//! | §IV.C back-transformation (future work) | implemented: [`ca_eigen::transforms`], [`ca_eigen::try_symm_eigen_25d_vectors`] |
//!
//! ## §V — Conclusion
//!
//! | Paper remark | Implementation |
//! |---|---|
//! | Left-looking vs complete trailing updates | claim `full-to-band.Fvol.c4-over-c1` |
//! | `k = p^{2−3δ}` single-stage reduction | claims `band-ladder.W.k2-over-k8`, `band-ladder.S.k2-over-k8` |
//! | Lookahead \[38\]\[39\] | not modeled (overlap does not change the ledger's asymptotics; recorded in DESIGN.md §8) |
//! | "singular values or eigenvalues" | [`ca_eigen::try_svd`], [`ca_eigen::try_singular_values`] (Jordan–Wielandt embedding) |
//! | Tuning space in `c` | [`ca_eigen::tuning`] |
