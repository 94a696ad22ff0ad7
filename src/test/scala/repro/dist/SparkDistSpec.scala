package repro.dist

import repro.SparkSpec
import repro.core._
import repro.roadnet.{RoadNetGen, TrafficModel}

/** The distributed deployment must be result-identical to the local
  * reference implementation: same skeleton, same LBDs, same query answers,
  * through builds, maintenance batches, and scale-out repartitioning.
  */
class SparkDistSpec extends SparkSpec {

  private lazy val g0 = RoadNetGen.generate(250, seed = 21)

  test("distributed build produces the same skeleton as the local build") {
    val g = g0.snapshot()
    val local = Dtlp.build(g.snapshot(), z = 25, xi = 3)
    val sparkDtlp = SparkDtlp.build(spark, g, z = 25, xi = 3)
    assert(sparkDtlp.skeleton.numVertices == local.skeleton.numVertices)
    assert(sparkDtlp.skeleton.numEdges == local.skeleton.numEdges)
    local.subIndexes.flatMap(_.pairs.keys).distinct.foreach { case (a, b) =>
      val lw = local.skeleton.weightOf(a, b)
      val sw = sparkDtlp.skeleton.weightOf(a, b)
      assert(lw.isDefined && sw.isDefined, s"pair ($a,$b) missing")
      assert(math.abs(lw.get - sw.get) < 1e-9, s"pair ($a,$b)")
    }
  }

  test("distributed queries equal local queries and Yen ground truth") {
    val g = g0.snapshot()
    val sparkDtlp = SparkDtlp.build(spark, g, z = 25, xi = 3)
    val engine = SparkKspEngine(sparkDtlp)
    val rnd = new scala.util.Random(1)
    for (_ <- 1 to 5) {
      val s = rnd.nextInt(g.numVertices); val t = rnd.nextInt(g.numVertices)
      if (s != t) {
        val got = TestGraphs.distances(engine.query(KspQuery(0, s, t, 3)).paths)
        val expect = TestGraphs.distances(Yen.ksp(g, s, t, 3))
        assert(got == expect, s"s=$s t=$t")
      }
    }
  }

  test("batch of queries is served with shared refine rounds") {
    val g = g0.snapshot()
    val sparkDtlp = SparkDtlp.build(spark, g, z = 25, xi = 3)
    val engine = SparkKspEngine(sparkDtlp)
    val qs = (1 to 6).map(i => KspQuery(i, (i * 31) % g.numVertices, (i * 77 + 13) % g.numVertices, 2))
      .filter(q => q.s != q.t)
    val results = engine.batch(qs)
    results.foreach { r =>
      val expect = TestGraphs.distances(Yen.ksp(g, r.query.s, r.query.t, r.query.k))
      assert(TestGraphs.distances(r.paths) == expect, s"q=${r.query}")
    }
  }

  test("distributed maintenance keeps results exact after drift") {
    val g = g0.snapshot()
    val probe = g.snapshot()
    val sparkDtlp = SparkDtlp.build(spark, g, z = 25, xi = 3)
    val engine = SparkKspEngine(sparkDtlp)
    for (round <- 1 to 3) {
      val batch = TrafficModel.snapshot(probe, 0.5, 0.5, round)
      probe.applyUpdates(batch)
      sparkDtlp.update(batch)
      val got = TestGraphs.distances(engine.query(KspQuery(0, 7, 210, 3)).paths)
      val expect = TestGraphs.distances(Yen.ksp(probe, 7, 210, 3))
      assert(got == expect, s"round=$round")
    }
  }

  test("update refreshes skeleton weights to the distributed LBD minima") {
    val g = g0.snapshot()
    val probe = g.snapshot()
    val sparkDtlp = SparkDtlp.build(spark, g, z = 25, xi = 3)
    // A local index taking the same batches must end with bit-equal weights.
    val local = Dtlp.build(g.snapshot(), z = 25, xi = 3)
    val pairs = local.subIndexes.flatMap(_.pairs.keys).distinct
    for (round <- 1 to 3) {
      val drift = TrafficModel.snapshot(probe, 0.4, 0.4, round)
      // Round 2 also names one edge twice; the later event holds.
      val batch = if (round != 2) drift else {
        val u = drift.head
        drift :+ WeightUpdate(u.edgeId, 1.5 * u.newWeight, 1.5 * u.newWeight - probe.weights(u.edgeId))
      }
      probe.applyUpdates(batch)
      sparkDtlp.update(batch)
      local.update(batch)
      pairs.foreach { case (a, b) =>
        val lw = local.skeleton.weightOf(a, b).map(java.lang.Double.doubleToRawLongBits)
        val sw = sparkDtlp.skeleton.weightOf(a, b).map(java.lang.Double.doubleToRawLongBits)
        assert(lw.isDefined && lw == sw, s"round=$round pair ($a,$b)")
      }
    }
    sparkDtlp.close()
  }

  test("both deployments report the same update counts on the same batches") {
    val g = RoadNetGen.generate(400, seed = 24)
    val probe = g.snapshot()
    val sparkDtlp = SparkDtlp.build(spark, g, z = 40, xi = 3)
    val local = Dtlp.build(g.snapshot(), z = 40, xi = 3)
    def counts(r: UpdateReport) =
      (r.events, r.touchedSubgraphs, r.epBumps, r.exactRefreshDijkstras, r.skeletonWeightsChanged)
    for (round <- 1 to 3) {
      val batch = TrafficModel.snapshot(probe, 0.35, 0.30, round)
      probe.applyUpdates(batch)
      val want = counts(local.update(batch))
      assert(want._3 > 0 && want._4 > 0 && want._5 > 0, s"round=$round")
      assert(counts(sparkDtlp.update(batch)) == want, s"round=$round")
    }
    sparkDtlp.close()
  }

  test("update rejects an unknown edge or a bad weight before anything is written") {
    val g = g0.snapshot()
    val sparkDtlp = SparkDtlp.build(spark, g, z = 25, xi = 3)
    val before = g.weights.clone()
    val valid = WeightUpdate(0, 2 * before(0), before(0))
    Seq(WeightUpdate(g.numEdges, 1.0, 1.0), WeightUpdate(1, Double.NaN, Double.NaN)).foreach { u =>
      assertThrows[IllegalArgumentException](sparkDtlp.update(Seq(valid, u)))
      assert(g.weights.sameElements(before), s"driver graph written for $u")
    }
    sparkDtlp.close()
  }

  test("attachment bounds served by the cluster match the local service") {
    val g = g0.snapshot()
    val sparkDtlp = SparkDtlp.build(spark, g, z = 25, xi = 3)
    val local = Dtlp.build(g.snapshot(), z = 25, xi = 3)
    val sparkSvc = new SparkRefineService(sparkDtlp)
    val localSvc = new LocalRefineService(local)
    val interior = (0 until g.numVertices).filterNot(local.partitioning.isBoundary).take(5)
    interior.foreach { v =>
      val a = sparkSvc.attachmentBounds(v, Set.empty)
      val b = localSvc.attachmentBounds(v, Set.empty)
      assert(a.map(_._1) == b.map(_._1), s"v=$v targets differ")
      a.zip(b).foreach { case ((_, wa), (_, wb)) => assert(math.abs(wa - wb) < 1e-9) }
    }
  }

  test("scale-out repartitioning does not change results") {
    def built(n: Int): SparkDtlp = SparkDtlp.build(spark, g0.snapshot(), z = 25, xi = 3, numWorkers = n)
    val expect = {
      val d = built(8)
      try TestGraphs.distances(SparkKspEngine(d).query(KspQuery(0, 3, 240, 3)).paths) finally d.close()
    }
    Seq(1, 2, 4).foreach { n =>
      val d = built(n)
      assert(d.numWorkers == n)
      assert(d.indexes.rdd.getNumPartitions == n)
      val got = TestGraphs.distances(SparkKspEngine(d).query(KspQuery(0, 3, 240, 3)).paths)
      d.close()
      assert(got == expect, s"workers=$n")
    }
  }

  test("per-subgraph indexes survive the kryo round trip intact") {
    val g = RoadNetGen.generate(120, seed = 33)
    val sparkDtlp = SparkDtlp.build(spark, g, z = 20, xi = 2)
    val indexes = sparkDtlp.indexes.collect()
    assert(indexes.length == sparkDtlp.partitioning.subgraphs.length)
    indexes.foreach { idx =>
      // EP-Index and pair bounds reference the same BoundingPath objects.
      idx.pairs.values.flatMap(_.paths).foreach { bp =>
        val viaEp = idx.epIndex.pathsThrough(bp.localEdges.head).find(_._1.pathId == bp.pathId)
        assert(viaEp.isDefined)
        assert(viaEp.get._1 eq bp, "object identity lost in serialization")
      }
    }
  }
}
