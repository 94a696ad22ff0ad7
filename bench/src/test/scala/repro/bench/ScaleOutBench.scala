package repro.bench

import repro.core._
import repro.dist.{SparkDtlp, SparkKspEngine}
import repro.roadnet.RoadNetGen

/** Figures 42–46 shape: horizontal scalability. "Servers" are emulated by
  * building the subgraph-index Dataset with N partitions (`numWorkers`) and
  * capping the engine's query-worker threads at N (DESIGN.md §2) — network
  * latency is out of scope, work-partitioning is in.
  */
class ScaleOutBench extends BenchHarness {

  test("Figure 42 shape: DTLP build time vs number of workers") {
    val g = RoadNetGen.generate(RoadNetGen.NyLite)
    // Warm-up build: JIT-compile the whole index path before measuring.
    SparkDtlp.build(spark, g.snapshot(), 50, 8, numWorkers = 4).close()
    val rows = Seq(1, 4, 16).map { n =>
      val (dtlp, secs) = timeS(SparkDtlp.build(spark, g.snapshot(), 50, 8, numWorkers = n))
      dtlp.close()
      Seq(n, fmt(secs))
    }
    table("DTLP build vs #workers (NY-lite, z=50, xi=8) — paper: decreasing with more servers",
      Seq("workers", "build s"), rows)
    val times = rows.map(_(1).toString.toDouble)
    assert(times.last < times.head, s"build did not scale out: $times")
  }

  test("Figure 43/44 shape: query batch time vs number of workers and k") {
    val g = RoadNetGen.generate(RoadNetGen.NyLite)
    val rnd = new scala.util.Random(41)
    val pairs = (1 to 24).map(_ => (rnd.nextInt(g.numVertices), rnd.nextInt(g.numVertices)))
      .filter { case (s, t) => s != t }
    val rows = Seq(1, 4, 16).flatMap { workers =>
      val dtlp = SparkDtlp.build(spark, g.snapshot(), 50, 8, numWorkers = workers)
      val engine = SparkKspEngine(dtlp, maxIterations = 1500, queryParallelism = workers)
      val kRows = Seq(2, 5).map { k =>
        val qs = pairs.zipWithIndex.map { case ((s, t), i) => KspQuery(i, s, t, k) }
        val (_, secs) = timeS(engine.batch(qs))
        Seq(workers, k, fmt(secs))
      }
      dtlp.close()
      kRows
    }
    table("Query batch (24 queries) vs #workers and k (NY-lite, z=50, xi=8) — paper: time drops with more servers for every k",
      Seq("workers", "k", "batch s"), rows)
    // Shape: 16 workers beat 1 worker at k=2.
    val t1 = rows.find(r => r(0) == 1 && r(1) == 2).get(2).toString.toDouble
    val t16 = rows.find(r => r(0) == 16 && r(1) == 2).get(2).toString.toDouble
    assert(t16 < t1, s"no scale-out speedup: 1w=$t1 16w=$t16")
  }
}
