package repro.core

import java.util.ConcurrentModificationException

import repro.SparkSpec
import repro.baselines.YenBaseline
import repro.dist.SparkDtlp
import repro.roadnet.{RoadNetGen, TrafficModel}

/** What a query answer promises: why it stopped (`termination`, `exact`),
  * and that a batch never mixes index epochs.
  */
class QueryContractSpec extends SparkSpec {

  private lazy val g = RoadNetGen.generate(300, seed = 88)
  private lazy val dtlp = Dtlp.build(g, z = 30, xi = 3)

  private val pairs = {
    val rnd = new scala.util.Random(3)
    Seq.fill(12)((rnd.nextInt(300), rnd.nextInt(300))).filter { case (s, t) => s != t }
  }

  test("uncapped queries stop by Theorem 3 or exhaustion, are exact and equal Yen") {
    val engine = KspDg.local(dtlp)
    pairs.foreach { case (s, t) =>
      val r = engine.query(KspQuery(0, s, t, 4))
      assert(r.exact && r.termination != Termination.IterationCap, s"s=$s t=$t")
      assert(TestGraphs.distances(r.paths) == TestGraphs.distances(Yen.ksp(g, s, t, 4)), s"s=$s t=$t")
    }
    assert(engine.query(KspQuery(0, 7, 7, 3)).termination == Termination.Exhausted)
    assert(new YenBaseline(g).query(KspQuery(0, 1, 2, 3)).termination == Termination.Exhausted)
  }

  test("a query stopped by the iteration cap reports IterationCap and is not exact") {
    val (s, t, full) = pairs.iterator
      .map { case (s, t) => (s, t, KspDg.local(dtlp).query(KspQuery(0, s, t, 4))) }
      .find(_._3.iterations > 1)
      .getOrElse(fail("no sampled query needs more than one iteration"))
    assert(full.exact)
    val capped = KspDg.local(dtlp, maxIterations = 1).query(KspQuery(0, s, t, 4))
    assert(capped.iterations == 1)
    assert(capped.termination == Termination.IterationCap)
    assert(!capped.exact)
  }

  /** A batch of queries between interior vertices far apart, so that every
    * query asks the refine service for partial paths.
    */
  private def farQueries(d: Dtlp): Seq[KspQuery] = {
    val interior = (0 until g.numVertices).filterNot(d.partitioning.isBoundary)
    Seq(KspQuery(0, interior.head, interior.last, 3), KspQuery(1, interior(1), interior(interior.size - 2), 2))
  }

  test("a batch that overlaps an index update throws; the same batch alone passes") {
    val local = RoadNetGen.generate(300, seed = 89)
    val d = Dtlp.build(local, z = 30, xi = 3)
    val qs = farQueries(d)
    val plain = KspDg.local(d).batch(qs)
    assert(plain.forall(_.paths.nonEmpty))
    val service = new LocalRefineService(d)
    var updated = false
    val updating = new RefineService {
      def partialKsp(rs: Seq[PairRequest]): Map[(Int, Int), Seq[Path]] = {
        if (!updated) {
          updated = true
          d.update(TrafficModel.snapshot(local.snapshot(), 0.5, 0.3, 1, 89))
        }
        service.partialKsp(rs)
      }
      def attachmentBounds(v: Int, x: Set[Int]): Seq[(Int, Double)] = service.attachmentBounds(v, x)
    }
    assertThrows[ConcurrentModificationException](
      new KspDgEngine(d.partitioning, d.skeleton, updating).batch(qs))
    assert(updated)
    // With no update in flight the same batch passes again.
    assert(KspDg.local(d).batch(qs).map(_.paths.nonEmpty) == plain.map(_.paths.nonEmpty))
  }

  test("every update, local or on Spark, moves the epoch by two and leaves it even") {
    val local = RoadNetGen.generate(200, seed = 90)
    val d = Dtlp.build(local, z = 25, xi = 2)
    val e0 = d.skeleton.epoch
    d.update(TrafficModel.snapshot(local.snapshot(), 0.5, 0.3, 1, 90))
    assert(d.skeleton.epoch == e0 + 2)
    assertThrows[IllegalArgumentException](d.update(Seq(WeightUpdate(-1, 1.0, 0.0))))
    assert(d.skeleton.epoch % 2 == 0)

    val onSpark = RoadNetGen.generate(200, seed = 91)
    val sd = SparkDtlp.build(spark, onSpark, z = 25, xi = 2, numWorkers = 2)
    try {
      val s0 = sd.skeleton.epoch
      sd.update(TrafficModel.snapshot(onSpark.snapshot(), 0.5, 0.3, 1, 91))
      assert(sd.skeleton.epoch == s0 + 2)
    } finally sd.close()
  }
}
