package kspbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("percentile interpolates between closest ranks") {
    val xs = Seq(4.0, 1.0, 3.0, 2.0)
    assert(Stats.percentile(xs, 0) == 1.0)
    assert(Stats.percentile(xs, 100) == 4.0)
    assert(Stats.median(xs) == 2.5)
    assert(Stats.percentile(xs, 25) == 1.75)
    assert(Stats.median(Seq(7.0)) == 7.0)
    assert(Stats.percentile((1 to 101).map(_.toDouble), 95) == 96.0)
  }

  test("percentile rejects empty samples and out-of-range p") {
    assertThrows[IllegalArgumentException](Stats.percentile(Seq.empty, 50))
    assertThrows[IllegalArgumentException](Stats.percentile(Seq(1.0), 101))
  }

  test("p95 of 200 samples has ten samples beyond it") {
    assert(Stats.samplesBeyond(200, 95) == 10)
    assert(Stats.samplesBeyond(199, 95) < 10)
  }

  test("perSecond divides a count by elapsed nanoseconds") {
    assert(Stats.perSecond(64, 250000000L) == 256.0)
    assertThrows[IllegalArgumentException](Stats.perSecond(1, 0))
  }

  test("result line has exactly the keys correct, attempted, failed and metrics, with every digit") {
    val line = Stats.resultJson(correct = true, attempted = 3, failed = 1,
      Seq(Stats.Metric("query_p50_ms", 1.2345678901234, "ms"), Stats.Metric("index_bytes", 2.0e7, "bytes")))
    assert(line ==
      """{"correct": true, "attempted": 3, "failed": 1, "metrics": {"query_p50_ms": {"value": 1.2345678901234, "unit": "ms"}, "index_bytes": {"value": 2.0E7, "unit": "bytes"}}}""")
    assertThrows[IllegalArgumentException](Stats.resultJson(true, 1, 0, Seq(Stats.Metric("x", Double.NaN, "ms"))))
  }
}
