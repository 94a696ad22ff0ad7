package repro.bench

import repro.baselines.Cands
import repro.core._
import repro.roadnet.{RoadNetGen, TrafficModel}

/** Figures 40–41 shape: CANDS vs KSP-DG/DTLP on single-shortest-path (k=1)
  * workloads. The paper's claim is about maintenance under drift: CANDS must
  * recompute per-subgraph all-pairs boundary shortest paths, whose cost
  * grows with subgraph size, while DTLP only bumps stored distances. We
  * sweep z to expose that scaling; the crossover must favor DTLP at the
  * paper-scale z.
  */
class CandsBench extends BenchHarness {

  private def parallelMap[A, B](xs: Seq[A])(f: A => B): Seq[B] = {
    import scala.concurrent._
    import scala.concurrent.duration._
    implicit val ec: ExecutionContext = ExecutionContext.global
    Await.result(Future.sequence(xs.map(x => Future(f(x)))), 10.minutes)
  }

  test("Figure 41 shape: maintenance cost vs z — DTLP flat, CANDS growing") {
    val g = RoadNetGen.generate(RoadNetGen.FlaLite)
    val rows = Seq(50, 125, 250).map { z =>
      val cands = new Cands(Partitioner.partition(g.snapshot(), z))
      val dtlpG = g.snapshot()
      val dtlp = Dtlp.build(dtlpG, z, xi = 8)
      val candsMaintS = (1 to 3).map { r =>
        val batch = TrafficModel.snapshot(cands.partitioning.graph.snapshot(), 0.5, 0.5, r)
        secondsOf(cands.update(batch))
      }.sum / 3
      val dtlpMaintS = (1 to 3).map { r =>
        val batch = TrafficModel.snapshot(dtlpG.snapshot(), 0.5, 0.5, r)
        secondsOf(dtlp.update(batch))
      }.sum / 3
      Seq(z, fmt3(candsMaintS), fmt3(dtlpMaintS))
    }
    table("Maintenance per update batch vs z (FLA-lite, alpha=50%, tau=50%) — " +
      "paper: CANDS recomputation dwarfs DTLP's distance bumps at realistic z",
      Seq("z", "CANDS maint s", "DTLP maint s"), rows)
    val candsAtMax = rows.last(1).toString.toDouble
    val dtlpAtMax = rows.last(2).toString.toDouble
    assert(dtlpAtMax < candsAtMax,
      s"DTLP maintenance ($dtlpAtMax) should beat CANDS ($candsAtMax) at z=250")
  }

  test("Figure 40 shape: k=1 query cost (both exact, both parallel)") {
    val g = RoadNetGen.generate(RoadNetGen.NyLite)
    val cands = new Cands(Partitioner.partition(g.snapshot(), 50))
    val dtlpG = g.snapshot()
    val dtlp = Dtlp.build(dtlpG, 50, xi = 8)
    val engine = KspDg.local(dtlp, maxIterations = 1500)
    val rnd = new scala.util.Random(23)
    val pairs = (1 to 20).map(_ => (rnd.nextInt(g.numVertices), rnd.nextInt(g.numVertices)))
      .filter { case (s, t) => s != t }
    cands.shortestPath(pairs.head._1, pairs.head._2) // warm the overlay cache
    val (candsRes, candsQS) = timeS(parallelMap(pairs) { case (s, t) => cands.shortestPath(s, t) })
    val (dgRes, dgQS) = timeS(engine.batch(pairs.zipWithIndex.map { case ((s, t), i) => KspQuery(i, s, t, 1) }))
    pairs.indices.foreach { i =>
      val a = candsRes(i).map(p => math.rint(p.distance * 1e6) / 1e6)
      val b = dgRes(i).paths.headOption.map(p => math.rint(p.distance * 1e6) / 1e6)
      assert(a == b, s"disagreement on ${pairs(i)}")
    }
    table("20 single-shortest-path queries (NY-lite, z=50) — paper: CANDS competitive or better at k=1",
      Seq("system", "batch s"),
      Seq(Seq("CANDS", fmt(candsQS)), Seq("KSP-DG", fmt(dgQS))))
  }
}
