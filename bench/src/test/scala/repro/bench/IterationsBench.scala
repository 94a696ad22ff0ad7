package repro.bench

import repro.core._
import repro.roadnet.{RoadNetGen, TrafficModel}

/** Figures 24–27 shape: the number of KSP-DG iterations — decreasing in ξ,
  * increasing in τ and k, small for moderate α.
  *
  * The ξ/τ/α sweeps run the PAPER's bound mechanism (fixed ξ levels, pure
  * vfrag bounds: levelSpread=1.0, exactRefresh off) because that is the
  * mechanism whose sensitivity the paper measures; a final table shows the
  * corrected adaptive variant (DESIGN.md §3), which keeps iterations small
  * across the whole sweep.
  */
class IterationsBench extends BenchHarness {

  private lazy val ny = RoadNetGen.generate(RoadNetGen.NyLite)
  private val queryPairs = {
    val rnd = new scala.util.Random(3)
    (1 to 6).map(_ => (rnd.nextInt(ny.numVertices), rnd.nextInt(ny.numVertices)))
      .filter { case (s, t) => s != t }
  }

  /** Average iterations over the fixed query set after one traffic round. */
  private def avgIterations(xi: Int, alpha: Double, tau: Double, k: Int,
                            paperMechanism: Boolean, cap: Int = 1200): Double = {
    val g = ny.snapshot()
    val dtlp =
      if (paperMechanism) Dtlp.build(g, 50, xi, levelSpread = 1.0, exactRefreshEnabled = false)
      else Dtlp.build(g, 50, xi)
    dtlp.update(TrafficModel.snapshot(g.snapshot(), alpha, tau, 1))
    val engine = KspDg.local(dtlp, maxIterations = cap)
    val results = engine.batch(queryPairs.zipWithIndex.map { case ((s, t), i) => KspQuery(i, s, t, k) })
    results.map(_.iterations).sum.toDouble / results.size
  }

  test("Figure 24 shape: iterations vs xi (paper mechanism; k=5)") {
    val rows = Seq(4, 6, 8, 12).map(xi =>
      Seq(xi, fmt(avgIterations(xi, 0.35, 0.30, k = 5, paperMechanism = true))))
    table("Iterations vs xi (NY-lite, z=50, k=5, paper mechanism) — paper: decreasing sharply in xi",
      Seq("xi", "avg iterations"), rows)
    val its = rows.map(_(1).toString.toDouble)
    assert(its.last < its.head, s"iterations did not decrease with xi: $its")
  }

  test("Figure 25 shape: iterations vs tau (paper mechanism; xi=8, k=5)") {
    val rows = Seq(0.10, 0.30, 0.50).map(tau =>
      Seq(f"${tau * 100}%.0f%%", fmt(avgIterations(8, 0.35, tau, k = 5, paperMechanism = true))))
    table("Iterations vs tau (NY-lite, z=50, xi=8, k=5, paper mechanism) — paper: increasing in tau",
      Seq("tau", "avg iterations"), rows)
    val its = rows.map(_(1).toString.toDouble)
    assert(its.last >= its.head, s"iterations not increasing in tau: $its")
  }

  test("Figure 26 shape: iterations vs k (xi=8, corrected mechanism)") {
    val rows = Seq(2, 5, 10).map(k =>
      Seq(k, fmt(avgIterations(8, 0.35, 0.30, k = k, paperMechanism = false))))
    table("Iterations vs k (NY-lite, z=50, xi=8) — paper: increasing in k, slowly for small k",
      Seq("k", "avg iterations"), rows)
    val its = rows.map(_(1).toString.toDouble)
    assert(its.last >= its.head, s"iterations not increasing in k: $its")
  }

  test("Figure 27 shape: iterations vs alpha (paper mechanism; xi=8, k=5)") {
    val rows = Seq(0.10, 0.35, 0.60).map(a =>
      Seq(f"${a * 100}%.0f%%", fmt(avgIterations(8, a, 0.30, k = 5, paperMechanism = true))))
    table("Iterations vs alpha (NY-lite, z=50, xi=8, k=5, paper mechanism) — paper: dataset-dependent, small for alpha<30%",
      Seq("alpha", "avg iterations"), rows)
  }

  test("corrected adaptive mechanism keeps iterations near k everywhere") {
    val rows = Seq((0.35, 0.30), (0.35, 0.50), (0.60, 0.30)).map { case (a, tau) =>
      Seq(f"${a * 100}%.0f%%", f"${tau * 100}%.0f%%",
        fmt(avgIterations(8, a, tau, k = 5, paperMechanism = false)))
    }
    table("Iterations with adaptive level spread + exact-refresh (k=5) — ours: stays small under drift",
      Seq("alpha", "tau", "avg iterations"), rows)
    rows.foreach(r => assert(r(2).toString.toDouble < 100, s"adaptive iterations blew up: $r"))
  }
}
