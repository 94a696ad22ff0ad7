package repro.bench

import repro.core.{Dtlp, UpdateReport}
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

  /** Mean seconds per update over `rounds` snapshots, in total and split
    * into the report's route / subgraph / fold phases, plus the mean EP bumps.
    */
  private def localUpdateSplit(dtlp: Dtlp, g: repro.core.WeightedGraph,
                               alpha: Double, tau: Double, rounds: Int): Seq[Double] = {
    val reports = (1 to rounds).map(r => dtlp.update(TrafficModel.snapshot(g.snapshot(), alpha, tau, r)))
    def mean(f: UpdateReport => Long): Double = reports.map(f).sum.toDouble / rounds
    Seq(mean(_.totalNs) / 1e9, mean(_.routeNs) / 1e9, mean(_.subgraphNs) / 1e9, mean(_.foldNs) / 1e9, mean(_.epBumps))
  }

  private val SplitHeader = Seq("avg update s", "route s", "subgraph s", "fold s", "EP bumps")

  private def splitCells(split: Seq[Double]): Seq[String] = split.init.map(fmt3) :+ f"${split.last}%.0f"

  test("Figure 22 shape: maintenance time vs xi (alpha=50%, tau=50%)") {
    val splits = Seq(4, 8, 12).map { xi =>
      val g = ny.snapshot()
      val dtlp = Dtlp.build(g, z = 50, xi = xi)
      xi -> localUpdateSplit(dtlp, g, 0.5, 0.5, rounds = 5)
    }
    table("DTLP maintenance vs xi (NY-lite, z=50) — paper: ascending, rate slows for large xi",
      "xi" +: SplitHeader, splits.map { case (xi, split) => xi.toString +: splitCells(split) })
    val times = splits.map(_._2.head)
    assert(times.last >= times.head, s"maintenance not ascending in xi: $times")
  }

  test("Figure 23 shape: maintenance time vs alpha (xi=8, tau=50%)") {
    val g = ny.snapshot()
    val dtlp = Dtlp.build(g, z = 50, xi = 8)
    localUpdateSplit(dtlp, g, 0.5, 0.5, rounds = 2) // JIT warm-up
    val splits = Seq(0.1, 0.3, 0.5).map(alpha => alpha -> localUpdateSplit(dtlp, g, alpha, 0.5, rounds = 5))
    table("DTLP maintenance vs alpha (NY-lite, z=50, xi=8) — paper: ascending in alpha",
      "alpha" +: SplitHeader, splits.map { case (alpha, split) => f"${alpha * 100}%.0f%%" +: splitCells(split) })
    val times = splits.map(_._2.head)
    assert(times.last >= times.head, s"maintenance not ascending in alpha: $times")
  }

  test("Figure 21 shape: cluster update throughput across graph sizes") {
    val rows = Seq(4000, 8000, 16000).map { n =>
      val g = RoadNetGen.generate(n, seed = 6)
      val dtlp = SparkDtlp.build(spark, g, z = 50, xi = 8)
      val batch = TrafficModel.snapshot(g.snapshot(), 0.5, 0.3, 1)
      val r = dtlp.update(batch)
      val secs = r.totalNs / 1e9
      Seq(n, batch.size, fmt3(secs), fmt3(r.subgraphNs / 1e9), fmt3(r.foldNs / 1e9), f"${batch.size / secs}%.0f")
    }
    table("Maintenance throughput vs graph size (z=50, xi=8, cluster) — paper: throughput roughly size-independent",
      Seq("N_g vertices", "updates in batch", "update s", "Spark jobs s", "fold s", "updates/s"), rows)
  }
}
