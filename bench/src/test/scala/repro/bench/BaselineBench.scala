package repro.bench

import repro.baselines.{FindKsp, YenBaseline}
import repro.core._
import repro.dist.{SparkDtlp, SparkKspEngine}
import repro.roadnet.{RoadNetGen, TrafficModel}

/** Figures 35–39 shape: batch throughput of KSP-DG vs the centralized
  * baselines (Yen, FindKSP). The paper's claims: KSP-DG scales with far
  * lower slope in N_q; the gap widens on larger graphs; FindKSP beats Yen;
  * KSP-DG's k-slope is the flattest.
  */
class BaselineBench extends BenchHarness {

  private def run(netName: String, cfgNet: RoadNetGen.NetworkConfig, z: Int, nqs: Seq[Int]): Seq[Seq[Any]] = {
    val g = RoadNetGen.generate(cfgNet)
    val dtlp = SparkDtlp.build(spark, g, z, xi = 8)
    dtlp.update(TrafficModel.snapshot(g.snapshot(), 0.35, 0.30, 1))
    val engine = SparkKspEngine(dtlp, maxIterations = 1500)
    val yen = new YenBaseline(g)
    val find = new FindKsp(g)
    val rnd = new scala.util.Random(17)
    nqs.map { nq =>
      val qs = (1 to nq).map(i =>
        KspQuery(i, rnd.nextInt(g.numVertices), rnd.nextInt(g.numVertices), 2))
        .filter(q => q.s != q.t)
      val (dgRes, dgS) = timeS(engine.batch(qs))
      val (yenRes, yenS) = timeS(yen.batch(qs))
      val (findRes, findS) = timeS(find.batch(qs))
      // All three must agree — the throughput race is only fair when exact.
      qs.indices.foreach { i =>
        val d = dgRes(i).paths.map(p => math.rint(p.distance * 1e6) / 1e6)
        val y = yenRes(i).paths.map(p => math.rint(p.distance * 1e6) / 1e6)
        val f = findRes(i).paths.map(p => math.rint(p.distance * 1e6) / 1e6)
        assert(d == y && f == y, s"disagreement on ${qs(i)}")
      }
      Seq(netName, qs.size, fmt(dgS), fmt(yenS), fmt(findS))
    }
  }

  test("Figure 35/37 shape: batch time vs N_q on NY-lite and FLA-lite (k=2)") {
    val rows = run("NY-lite", RoadNetGen.NyLite, z = 50, nqs = Seq(8, 16, 32)) ++
               run("FLA-lite", RoadNetGen.FlaLite, z = 125, nqs = Seq(8, 16))
    table("Batch time vs N_q — paper: KSP-DG lowest slope; gap widens on larger graphs",
      Seq("network", "N_q", "KSP-DG s", "Yen s", "FindKSP s"), rows)
  }

  test("Figure 39 shape: batch time vs k (NY-lite, 12 queries)") {
    val g = RoadNetGen.generate(RoadNetGen.NyLite)
    val dtlp = SparkDtlp.build(spark, g, 50, 8)
    dtlp.update(TrafficModel.snapshot(g.snapshot(), 0.35, 0.30, 1))
    val engine = SparkKspEngine(dtlp, maxIterations = 1500)
    val yen = new YenBaseline(g)
    val find = new FindKsp(g)
    val rnd = new scala.util.Random(19)
    val pairs = (1 to 12).map(_ => (rnd.nextInt(g.numVertices), rnd.nextInt(g.numVertices)))
      .filter { case (s, t) => s != t }
    val rows = Seq(2, 5, 10).map { k =>
      val qs = pairs.zipWithIndex.map { case ((s, t), i) => KspQuery(i, s, t, k) }
      val (_, dgS) = timeS(engine.batch(qs))
      val (_, yenS) = timeS(yen.batch(qs))
      val (_, findS) = timeS(find.batch(qs))
      Seq(k, fmt(dgS), fmt(yenS), fmt(findS))
    }
    table("Batch time vs k (NY-lite, 12 queries) — paper: Yen's slope steepest; KSP-DG < FindKSP",
      Seq("k", "KSP-DG s", "Yen s", "FindKSP s"), rows)
    // Shape: Yen grows fastest with k.
    val yenGrowth = rows.last(2).toString.toDouble / math.max(1e-9, rows.head(2).toString.toDouble)
    val dgGrowth = rows.last(1).toString.toDouble / math.max(1e-9, rows.head(1).toString.toDouble)
    assert(yenGrowth > 1.0, s"Yen should grow with k: $yenGrowth")
    assert(dgGrowth < yenGrowth * 3, "KSP-DG k-slope should not explode relative to Yen")
  }
}
