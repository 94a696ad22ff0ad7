package repro.core

import repro.{KspSqlOracle, SparkSpec}
import repro.roadnet.{RoadNetGen, TrafficModel}

/** End-to-end KSP-DG correctness: results must equal whole-graph Yen
  * (the paper's exactness claim, Theorem 3), across static and drifted
  * weights, boundary and non-boundary endpoints, and various k / z / ξ.
  */
class KspDgSpec extends SparkSpec {

  private def check(g: WeightedGraph, engine: KspDgEngine, s: Int, t: Int, k: Int, tag: String): Unit = {
    val got = engine.query(KspQuery(0, s, t, k))
    val expect = Yen.ksp(g, s, t, k)
    assert(TestGraphs.distances(got.paths) == TestGraphs.distances(expect), s"$tag s=$s t=$t k=$k")
    got.paths.foreach { p =>
      assert(p.isSimple)
      assert(p.source == s && p.target == t)
      assert(math.abs(g.walkDistance(p.vertices) - p.distance) < 1e-9)
    }
  }

  test("matches Yen on a static road network (boundary and interior endpoints)") {
    for (seed <- 1 to 5) {
      val g = RoadNetGen.generate(220, seed = seed)
      val dtlp = Dtlp.build(g, z = 25, xi = 3)
      val engine = KspDg.local(dtlp)
      val bs = dtlp.partitioning.boundaryVertices
      val interior = (0 until g.numVertices).filterNot(dtlp.partitioning.isBoundary)
      check(g, engine, bs(0), bs(bs.length - 1), 3, s"seed=$seed boundary")
      check(g, engine, interior.head, interior.last, 3, s"seed=$seed interior")
      check(g, engine, interior.head, bs(bs.length / 2), 3, s"seed=$seed mixed")
    }
  }

  test("matches Yen across many random endpoint pairs") {
    val g = RoadNetGen.generate(300, seed = 42)
    val dtlp = Dtlp.build(g, z = 30, xi = 3)
    val engine = KspDg.local(dtlp)
    val rnd = new scala.util.Random(7)
    for (_ <- 1 to 12) {
      val s = rnd.nextInt(g.numVertices)
      val t = rnd.nextInt(g.numVertices)
      if (s != t) check(g, engine, s, t, 2, "random")
    }
  }

  test("matches Yen for larger k") {
    val g = RoadNetGen.generate(200, seed = 11)
    val dtlp = Dtlp.build(g, z = 25, xi = 3)
    val engine = KspDg.local(dtlp)
    for (k <- Seq(1, 2, 5, 8)) check(g, engine, 3, g.numVertices - 4, k, "k-sweep")
  }

  test("matches Yen across z and xi settings") {
    val g = RoadNetGen.generate(200, seed = 12)
    for (z <- Seq(12, 25, 60); xi <- Seq(1, 2, 4)) {
      val dtlp = Dtlp.build(g, z = z, xi = xi)
      val engine = KspDg.local(dtlp)
      check(g, engine, 5, g.numVertices - 6, 3, s"z=$z xi=$xi")
    }
  }

  test("stays exact after traffic drift, with cache invalidation") {
    for (seed <- 1 to 4) {
      val g = RoadNetGen.generate(220, seed = 100 + seed)
      val dtlp = Dtlp.build(g, z = 25, xi = 3)
      val engine = KspDg.local(dtlp)
      val rnd = new scala.util.Random(seed)
      for (round <- 1 to 3) {
        val batch = TrafficModel.snapshot(g.snapshot(), alpha = 0.5, tau = 0.5, round = round, seed = seed)
        dtlp.update(batch)
        engine.invalidateCache()
        val s = rnd.nextInt(g.numVertices)
        val t = (s + g.numVertices / 2) % g.numVertices
        check(g, engine, s, t, 3, s"seed=$seed round=$round")
      }
    }
  }

  test("DuckDB oracle confirms KSP-DG distances on a tiny network") {
    val g = TestGraphs.randomConnected(12, 8, 31)
    val dtlp = Dtlp.build(g, z = 6, xi = 2)
    val engine = KspDg.local(dtlp)
    val res = engine.query(KspQuery(0, 0, 11, 3))
    KspSqlOracle.check(spark, g, 0, 11, 3, res.paths)
  }

  test("batch processing equals per-query processing") {
    val g = RoadNetGen.generate(250, seed = 55)
    val dtlp = Dtlp.build(g, z = 25, xi = 3)
    val qs = (1 to 8).map { i =>
      KspQuery(i, (i * 17) % g.numVertices, (i * 53 + 99) % g.numVertices, 2)
    }.filter(q => q.s != q.t)
    val together = KspDg.local(dtlp).batch(qs)
    val separate = qs.map(q => KspDg.local(dtlp).query(q))
    together.zip(separate).foreach { case (a, b) =>
      assert(TestGraphs.distances(a.paths) == TestGraphs.distances(b.paths), s"q=${a.query}")
    }
  }

  test("returns fewer paths when fewer exist; empty when disconnected") {
    val g = WeightedGraph.fromEdges(6,
      Seq((0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)))
    val dtlp = Dtlp.build(g, z = 3, xi = 2)
    val engine = KspDg.local(dtlp)
    assert(engine.query(KspQuery(0, 0, 2, 5)).paths.size == 1)
    assert(engine.query(KspQuery(1, 0, 5, 2)).paths.isEmpty)
  }

  test("degenerate s == t query yields the empty path") {
    val g = RoadNetGen.generate(100, seed = 77)
    val dtlp = Dtlp.build(g, z = 20, xi = 2)
    val res = KspDg.local(dtlp).query(KspQuery(0, 4, 4, 3))
    assert(res.paths == Seq(Path(Vector(4), Vector.empty, 0.0)))
  }

  test("iteration counts are small when k is small (Section 5.5)") {
    val g = RoadNetGen.generate(300, seed = 88)
    val dtlp = Dtlp.build(g, z = 30, xi = 3)
    val engine = KspDg.local(dtlp)
    val rnd = new scala.util.Random(3)
    val iters = (1 to 10).map { _ =>
      val s = rnd.nextInt(g.numVertices); val t = rnd.nextInt(g.numVertices)
      if (s == t) 1 else engine.query(KspQuery(0, s, t, 2)).iterations
    }
    // At construction the skeleton is tight: expect close to k iterations.
    assert(iters.max <= 25, s"iterations blew up: $iters")
  }

  /** An engine whose refine service counts the calls it serves. */
  private def countingEngine(dtlp: Dtlp): (KspDgEngine, java.util.concurrent.atomic.AtomicInteger) = {
    val calls = new java.util.concurrent.atomic.AtomicInteger
    val local = new LocalRefineService(dtlp)
    val svc = new RefineService {
      def partialKsp(rs: Seq[PairRequest]): Map[(Int, Int), Seq[Path]] = { calls.incrementAndGet(); local.partialKsp(rs) }
      def attachmentBounds(v: Int, x: Set[Int]): Seq[(Int, Double)] = { calls.incrementAndGet(); local.attachmentBounds(v, x) }
    }
    (new KspDgEngine(dtlp.partitioning, dtlp.skeleton, svc), calls)
  }

  test("batch rejects k <= 0 before any work") {
    val g = RoadNetGen.generate(100, seed = 13)
    val (engine, calls) = countingEngine(Dtlp.build(g, z = 20, xi = 2))
    Seq(0, -2).foreach { k =>
      assertThrows[IllegalArgumentException](engine.batch(Seq(KspQuery(0, 1, 90, 2), KspQuery(1, 3, 80, k))))
    }
    assert(calls.get == 0)
  }

  test("batch rejects endpoints outside the graph before any work") {
    val g = RoadNetGen.generate(100, seed = 14)
    val (engine, calls) = countingEngine(Dtlp.build(g, z = 20, xi = 2))
    val n = g.numVertices
    Seq((-1, 5), (5, n), (n + 3, 5), (5, -7)).foreach { case (s, t) =>
      assertThrows[IllegalArgumentException](engine.batch(Seq(KspQuery(0, 1, 90, 2), KspQuery(1, s, t, 2))))
    }
    assert(calls.get == 0)
  }

  test("single-subgraph graph degrades to plain Yen") {
    val g = TestGraphs.randomConnected(30, 20, 9)
    val dtlp = Dtlp.build(g, z = g.numVertices + 1, xi = 2)
    assert(dtlp.partitioning.boundaryVertices.isEmpty)
    val engine = KspDg.local(dtlp)
    check(g, engine, 0, 29, 4, "single-subgraph")
  }
}
