package repro.core

import scala.util.Random

import repro.SparkSpec
import repro.roadnet.{RoadNetGen, TrafficModel}

/** DTLP maintenance against the frozen [[ReferenceMbd]]: the slot-indexed
  * MBD fold, the array LBDs and the primitive unit-weight table must give
  * the same bits as the tuple path they replaced.
  */
class MaintenanceDifferentialSpec extends SparkSpec {

  private def bits(d: Double): Long = java.lang.Double.doubleToRawLongBits(d)

  private def assertSameAsReference(dtlp: Dtlp, ref: ReferenceMbd.Driver, tag: String): Unit = {
    dtlp.subIndexes.foreach { idx =>
      val table = new ReferenceMbd.UnitTable(idx.sg.local)
      val lbds = idx.lbds
      assert(lbds.length == idx.pairs.size, tag)
      idx.pairOrder.indices.foreach { i =>
        val pb = idx.pairOrder(i)
        val want = bits(ReferenceMbd.lbd(pb, table))
        assert(bits(lbds(i)) == want, s"$tag sg=${idx.sg.id} pair=(${pb.a},${pb.b})")
        assert(bits(pb.lbd(LbdMode.Faithful, idx.unitTable)) == want, s"$tag sg=${idx.sg.id} pair=(${pb.a},${pb.b})")
      }
    }
    assert(dtlp.skeleton.numEdges == ref.skeleton.weightOf.size, tag)
    ref.skeleton.weightOf.foreach { case ((a, b), w) =>
      assert(dtlp.skeleton.weightOf(a, b).map(bits).contains(bits(w)), s"$tag skeleton ($a,$b)")
    }
  }

  test("skeleton weights and per-subgraph LBDs equal the frozen tuple fold, bit for bit, over 40 snapshots") {
    val g = RoadNetGen.generate(500, seed = 41)
    val dtlp = Dtlp.build(g, z = 40, xi = 3)
    assert(dtlp.subIndexes.exists(_.pairs.valuesIterator.exists(_.exactRefresh)), "want exact-refresh pairs too")
    val ref = new ReferenceMbd.Driver(dtlp)
    assertSameAsReference(dtlp, ref, "build")
    val rnd = new Random(41)
    for (round <- 1 to 40) {
      val snapshot = TrafficModel.snapshot(g.snapshot(), 0.35, 0.30, round)
      // Round 7 names some edges twice; the later event's weight holds.
      val batch = if (round != 7) snapshot else snapshot ++ snapshot.take(50).map { u =>
        val nw = u.newWeight * (0.5 + rnd.nextDouble())
        WeightUpdate(u.edgeId, nw, nw - u.newWeight)
      }
      if (round == 7) assert(batch.map(_.edgeId).distinct.size < batch.size)
      dtlp.update(batch)
      ref.afterUpdate(batch)
      assertSameAsReference(dtlp, ref, s"round=$round")
    }
  }

  test("bd(m) equals the frozen table for every m when tied unit weights carry different vfrags") {
    for (seed <- 1 to 6) {
      val g = TestGraphs.randomConnected(40, 40, seed, maxW = 9)
      // Four unit weights shared by edges of different vfrag counts (powers
      // of two, so `unit · vfrags / vfrags` gives the unit back exactly). The
      // units are not dyadic, so their terms sum to different bits in
      // different orders: only the tie order keeps cumSum's bits.
      val units = Array(1.1, 0.7, 1.3, 0.9)
      (0 until g.numEdges).foreach { e =>
        val v = g.vfrags(e)
        g.weights(e) = if (Integer.bitCount(v) == 1) units(e % units.length) * v else g.initialWeights(e) * 1.37
      }
      units.foreach { u =>
        assert((0 until g.numEdges).filter(g.unitWeight(_) == u).map(g.vfrags).distinct.size > 1, s"seed=$seed unit=$u")
      }
      val table = UnitWeightTable(g)
      val ref = new ReferenceMbd.UnitTable(g)
      assert(table.totalVfrags == ref.totalVfrags)
      (0L to table.totalVfrags + 1).foreach { m =>
        assert(bits(table.bd(m)) == bits(ref.bd(m)), s"seed=$seed m=$m")
      }
    }
  }
}
