package kspbench

import org.scalatest.funsuite.AnyFunSuite

class DeterminismSpec extends AnyFunSuite {
  private val s = Settings(z = 20, xi = 4)
  private val drift = Plan("tiny-drift", vertices = 400, firstSnapshots = 1, epochs = 3, batchSize = 8,
    closedShare = 0.8, batchShare = 0.2, writeShare = 0, spark = false, setupRepeats = 1)
  private val writes = Plan("tiny-writes", vertices = 400, firstSnapshots = 1, epochs = 1, batchSize = 8,
    closedShare = 0.4, batchShare = 0.3, writeShare = 0.3, spark = false, setupRepeats = 2, writes = 5)

  test("one seed gives identical query lists and update batches") {
    val a = new Inputs("tiny", 42L, 400, 4, s)
    val b = new Inputs("tiny", 42L, 400, 4, s)
    assert(a.queryStream().take(500).toVector == b.queryStream().take(500).toVector)
    assert(a.batches == b.batches)
    assert(a.batches.forall(_.nonEmpty))
    assert(a.queryStream().take(500).forall(q => q.s != q.t && q.k == s.k))
    val c = new Inputs("tiny", 43L, 400, 4, s)
    assert(c.queryStream().take(50).toVector != a.queryStream().take(50).toVector)
    assert(c.batches == a.batches, "the dataset, not the seed, fixes the traffic")
    assert(new Inputs("other", 42L, 400, 4, s).batches != a.batches)
  }

  private val pooled = Plan("tiny-pooled", vertices = 400, firstSnapshots = 1, epochs = 1, batchSize = 8,
    closedShare = 0.4, batchShare = 0.3, writeShare = 0.3, spark = false, setupRepeats = 2,
    minHops = 3, closedPool = 5, batchPool = 3, writes = 4)

  test("the stream and the pools keep query endpoints minHops apart") {
    val in = pooled.inputs(42L, s)
    val g = in.freshGraph()
    val qs = in.queryStream().take(300).toVector ++ in.queryPool(40, firstId = 0)
    qs.foreach(q => assert(!Inputs.withinHops(g, q.s, q.t, pooled.minHops - 1), q))
    // Some pair of a uniform stream is nearer: the rule is not vacuous.
    assert(new Inputs("tiny-pooled", 42L, 400, 0, s).queryStream().take(2000)
      .exists(q => Inputs.withinHops(g, q.s, q.t, pooled.minHops - 1)))
    val a = g.edges.head
    assert(Inputs.withinHops(g, a.u, a.v, 1) && !Inputs.withinHops(g, a.u, a.v, 0))
  }

  test("a query pool is fixed by the dataset; the seed shuffles its order") {
    val a = pooled.inputs(1L, s).queryPool(30, firstId = 100)
    val b = pooled.inputs(2L, s).queryPool(30, firstId = 100)
    assert(a == pooled.inputs(1L, s).queryPool(30, firstId = 100))
    assert(a != b && a.sortBy(_.id) == b.sortBy(_.id))
    assert(a.map(_.id).sorted == (100L until 130L))
  }

  test("pooled activities run whole passes, and the write index takes every snapshot") {
    val r = new Runner(s, None).run(pooled, pooled.inputs(42L, s), seconds = 0.3)
    assert(r.closedMs.nonEmpty && r.closedMs.size % pooled.closedPool == 0)
    assert(r.batchNs.nonEmpty && r.batchNs.size % pooled.batchPool == 0)
    assert(r.updateNs.size == pooled.writes)
    assert(r.answers.keySet == (0L until (pooled.closedPool + pooled.batchPool * pooled.batchSize).toLong).toSet)
    assert(r.check.checked == r.queries)
  }

  for (plan <- Seq(drift, writes))
    test(s"one seed gives identical per-query iteration counts and answers across two runs (${plan.name})") {
      val runner = new Runner(s, None)
      def once() = runner.run(plan, plan.inputs(42L, s), seconds = 0.6)
      val (first, second) = (once(), once())
      val common = first.answers.keySet.intersect(second.answers.keySet)
        .filter(id => first.answers(id).epoch == second.answers(id).epoch)
      assert(common.size >= 10)
      common.foreach(id => assert(first.answers(id) == second.answers(id), s"query $id"))
      assert(first.check.wrongAnswers == second.check.wrongAnswers)
      assert(first.batchNs.nonEmpty && first.updateNs.nonEmpty)
      if (plan.writer) assert(first.updateNs.size == plan.writes && second.updateNs.size == plan.writes)
      assert(first.check.checked == first.queries)
    }
}
