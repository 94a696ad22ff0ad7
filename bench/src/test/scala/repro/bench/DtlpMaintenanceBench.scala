package repro.bench

import repro.core.Dtlp
import repro.dist.SparkDtlp
import repro.roadnet.{RoadNetGen, TrafficModel}

/** Figures 19/21–23 shape: DTLP maintenance cost — increasing and then
  * saturating in ξ, increasing in α, high absolute update throughput.
  * The ξ/α sweeps use the in-process index so the (constant) Spark job
  * overhead does not flatten the algorithmic trend at lite scale; the
  * throughput figure runs on the cluster deployment.
  */
class DtlpMaintenanceBench extends BenchHarness {

  private lazy val ny = RoadNetGen.generate(RoadNetGen.NyLite)

  private def localUpdateSeconds(dtlp: Dtlp, g: repro.core.WeightedGraph,
                                 alpha: Double, tau: Double, rounds: Int): Double = {
    (1 to rounds).map { r =>
      val batch = TrafficModel.snapshot(g.snapshot(), alpha, tau, r)
      secondsOf(dtlp.update(batch))
    }.sum / rounds
  }

  test("Figure 22 shape: maintenance time vs xi (alpha=50%, tau=50%)") {
    val rows = Seq(4, 8, 12).map { xi =>
      val g = ny.snapshot()
      val dtlp = Dtlp.build(g, z = 50, xi = xi)
      Seq(xi, fmt3(localUpdateSeconds(dtlp, g, 0.5, 0.5, rounds = 5)))
    }
    table("DTLP maintenance vs xi (NY-lite, z=50) — paper: ascending, rate slows for large xi",
      Seq("xi", "avg update s"), rows)
    val times = rows.map(_(1).toString.toDouble)
    assert(times.last >= times.head, s"maintenance not ascending in xi: $times")
  }

  test("Figure 23 shape: maintenance time vs alpha (xi=8, tau=50%)") {
    val g = ny.snapshot()
    val dtlp = Dtlp.build(g, z = 50, xi = 8)
    localUpdateSeconds(dtlp, g, 0.5, 0.5, rounds = 2) // JIT warm-up
    val rows = Seq(0.1, 0.3, 0.5).map { alpha =>
      Seq(f"${alpha * 100}%.0f%%", fmt3(localUpdateSeconds(dtlp, g, alpha, 0.5, rounds = 5)))
    }
    table("DTLP maintenance vs alpha (NY-lite, z=50, xi=8) — paper: ascending in alpha",
      Seq("alpha", "avg update s"), rows)
    val times = rows.map(_(1).toString.toDouble)
    assert(times.last >= times.head, s"maintenance not ascending in alpha: $times")
  }

  test("Figure 21 shape: cluster update throughput across graph sizes") {
    val rows = Seq(4000, 8000, 16000).map { n =>
      val g = RoadNetGen.generate(n, seed = 6)
      val dtlp = SparkDtlp.build(spark, g, z = 50, xi = 8)
      val batch = TrafficModel.snapshot(g.snapshot(), 0.5, 0.3, 1)
      val secs = secondsOf(dtlp.update(batch))
      Seq(n, batch.size, fmt3(secs), f"${batch.size / secs}%.0f")
    }
    table("Maintenance throughput vs graph size (z=50, xi=8, cluster) — paper: throughput roughly size-independent",
      Seq("N_g vertices", "updates in batch", "update s", "updates/s"), rows)
  }
}
