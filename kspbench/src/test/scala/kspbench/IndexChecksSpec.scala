package kspbench

import org.scalatest.funsuite.AnyFunSuite
import repro.core._

class IndexChecksSpec extends AnyFunSuite {
  private val s = Settings(z = 20, xi = 4)
  private val inputs = new Inputs("tiny", 7L, 400, 3, s)

  test("the replayed build and update stay bit-identical to Dtlp.build and Dtlp.update") {
    val spans = new Spans
    val replayed = Replay.build(inputs.freshGraph(), s, spans)
    val reference = Dtlp.build(inputs.freshGraph(), s.z, s.xi, LbdMode.Faithful)
    assert(IndexChecks.difference(replayed, reference).isEmpty)
    val updater = new Replay.Updater(replayed)
    inputs.batches.foreach { b =>
      updater.update(b, spans)
      reference.update(b)
      assert(IndexChecks.difference(replayed, reference).isEmpty)
    }
    assert(spans.n("update.snapshots") == inputs.batches.size)
    assert(spans.n("update.edges") == inputs.batches.map(_.size).sum)
  }

  test("a perturbed skeleton weight is reported") {
    val a = Dtlp.build(inputs.freshGraph(), s.z, s.xi, LbdMode.Faithful)
    val b = Dtlp.build(inputs.freshGraph(), s.z, s.xi, LbdMode.Faithful)
    b.skeleton.graph.weights(0) = java.lang.Math.nextUp(b.skeleton.graph.weights(0))
    assert(IndexChecks.difference(a, b).exists(_.contains("skeleton")))
  }

  test("the bound audit finds no violation and reports tightness at most 1") {
    val dtlp = Dtlp.build(inputs.freshGraph(), s.z, s.xi, LbdMode.Faithful)
    inputs.batches.foreach(dtlp.update)
    val (violations, ratios) = IndexChecks.auditBounds(dtlp)
    assert(violations == 0)
    assert(ratios.nonEmpty && ratios.forall(r => r > 0 && r <= 1 + 1e-9))
  }

  test("the bound audit counts an LBD above the exact distance") {
    val dtlp = Dtlp.build(inputs.freshGraph(), s.z, s.xi, LbdMode.Faithful)
    val pb = dtlp.subIndexes.iterator.flatMap(_.pairs.valuesIterator).find(_.exactRefresh).get
    pb.exactDist *= 2
    assert(IndexChecks.auditBounds(dtlp)._1 == 1)
  }
}
