package repro.bench

import repro.core._
import repro.dist.{SparkDtlp, SparkKspEngine}
import repro.roadnet.{RoadNetGen, TrafficModel}

/** Figures 28–34 shape: KSP-DG batch query time — U-shaped in z, ~linear in
  * k and in the number of concurrent queries N_q, decreasing in ξ.
  */
class KspQueryBench extends BenchHarness {

  private lazy val ny = RoadNetGen.generate(RoadNetGen.NyLite)

  private def queries(n: Int, k: Int, seed: Int = 13): Seq[KspQuery] = {
    val rnd = new scala.util.Random(seed)
    (1 to n).map(i => KspQuery(i, rnd.nextInt(ny.numVertices), rnd.nextInt(ny.numVertices), k))
      .filter(q => q.s != q.t)
  }

  private def builtEngine(z: Int, xi: Int): (SparkDtlp, KspDgEngine) = {
    val g = ny.snapshot()
    val dtlp = SparkDtlp.build(spark, g, z, xi)
    dtlp.update(TrafficModel.snapshot(g.snapshot(), 0.35, 0.30, 1))
    (dtlp, SparkKspEngine(dtlp, maxIterations = 1500))
  }

  test("Figure 28 shape: batch time vs z and k (NY-lite)") {
    val qs2 = queries(24, k = 2)
    val rows = for (z <- Seq(25, 50, 100)) yield {
      val (_, engine) = builtEngine(z, xi = 8)
      val (_, secs) = timeS(engine.batch(qs2))
      Seq(z, 2, fmt(secs))
    }
    val (_, engine50) = builtEngine(50, xi = 8)
    val kRows = for (k <- Seq(5, 8)) yield {
      val (_, secs) = timeS(engine50.batch(queries(24, k)))
      Seq(50, k, fmt(secs))
    }
    table("Batch query time (24 queries) vs z and k (NY-lite, xi=8) — paper: U-shaped in z, ~linear in k",
      Seq("z", "k", "batch s"), rows ++ kRows)
  }

  test("Figure 32 shape: batch time vs number of concurrent queries") {
    val (_, engine) = builtEngine(50, xi = 8)
    val rows = Seq(8, 16, 32, 64).map { nq =>
      val (_, secs) = timeS(engine.batch(queries(nq, k = 2, seed = 29)))
      Seq(nq, fmt(secs), fmt3(secs / nq))
    }
    table("Batch time vs N_q (NY-lite, z=50, xi=8, k=2) — paper: ~linear with low slope (shared work)",
      Seq("N_q", "batch s", "s/query"), rows)
    // Sub-linear per-query cost thanks to the shared pair cache + parallel QueryBolts.
    val perQ = rows.map(_(2).toString.toDouble)
    assert(perQ.last <= perQ.head * 2.0, s"per-query cost exploded: $perQ")
  }

  test("Figure 33 shape: batch time vs xi (paper bound mechanism)") {
    val qs = queries(16, k = 5, seed = 31)
    val rows = Seq(4, 8, 12).map { xi =>
      val g = ny.snapshot()
      val dtlp = SparkDtlp.build(spark, g, 50, xi,
        levelSpread = 1.0, exactRefreshEnabled = false)
      dtlp.update(TrafficModel.snapshot(g.snapshot(), 0.35, 0.30, 1))
      val engine = SparkKspEngine(dtlp, maxIterations = 1200)
      val (_, secs) = timeS(engine.batch(qs))
      Seq(xi, fmt(secs))
    }
    table("Batch query time vs xi (NY-lite, z=50, k=5, paper mechanism) — paper: decreasing in xi",
      Seq("xi", "batch s"), rows)
    val times = rows.map(_(1).toString.toDouble)
    assert(times.last < times.head, s"time not decreasing in xi: $times")
  }

  test("Figure 34 shape: batch time vs tau") {
    val qs = queries(16, k = 2, seed = 37)
    val rows = Seq(0.10, 0.50).map { tau =>
      val g = ny.snapshot()
      val dtlp = SparkDtlp.build(spark, g, 50, 8)
      dtlp.update(TrafficModel.snapshot(g.snapshot(), 0.35, tau, 1))
      val engine = SparkKspEngine(dtlp, maxIterations = 1500)
      val (_, secs) = timeS(engine.batch(qs))
      Seq(f"${tau * 100}%.0f%%", fmt(secs))
    }
    table("Batch query time vs tau (NY-lite, z=50, xi=8, k=2) — paper: slowly increasing in tau",
      Seq("tau", "batch s"), rows)
  }
}
