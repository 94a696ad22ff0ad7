package repro.bench

import org.apache.spark.sql.Encoders
import repro.dist.SparkDtlp
import repro.roadnet.RoadNetGen

/** Figures 15–18 + 20 shape: DTLP construction cost. The paper reports
  * (a) build time first decreasing then increasing in z, (b) EP-Index
  * memory with the same U-shape, and (c) build time ~linear in graph size.
  */
class DtlpConstructionBench extends BenchHarness {

  test("Figure 15/16 shape: NY-lite build time and EP-Index size vs z") {
    val g = RoadNetGen.generate(RoadNetGen.NyLite)
    val rows = Seq(15, 25, 50, 100).map { z =>
      val (dtlp, secs) = timeS(SparkDtlp.build(spark, g.snapshot(), z, xi = 8))
      val ep = dtlp.indexes
        .map(_.epIndex.storageElements)(Encoders.scalaLong)
        .collect().sum
      Seq(z, fmt(secs), ep, dtlp.partitioning.subgraphs.size, dtlp.skeleton.numVertices)
    }
    table("DTLP construction vs z (NY-lite, xi=8) — paper: U-shaped time & memory, minimum near default z",
      Seq("z", "build s", "EP-Index elements", "#subgraphs", "|G_lambda|"), rows)
  }

  test("Figure 20 shape: build time ~linear in graph size") {
    val rows = Seq(4000, 8000, 16000).map { n =>
      val g = RoadNetGen.generate(n, seed = 5)
      val (_, secs) = timeS(SparkDtlp.build(spark, g, z = 50, xi = 8))
      Seq(n, fmt(secs))
    }
    table("DTLP construction vs graph size N_g (z=50, xi=8) — paper: ~linear growth",
      Seq("N_g vertices", "build s"), rows)
    // Shape: 4x size should cost clearly more than 1x (monotonic growth).
    val times = rows.map(_(1).toString.toDouble)
    assert(times.last > times.head, s"no growth: $times")
  }
}
