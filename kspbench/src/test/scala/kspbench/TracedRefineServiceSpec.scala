package kspbench

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.roadnet.RoadNetGen

class TracedRefineServiceSpec extends AnyFunSuite {
  private val s = Settings(z = 20, xi = 4)
  private val dtlp = Dtlp.build(RoadNetGen.generate(300, seed = 5L), s.z, s.xi, LbdMode.Faithful)
  private val inner = new LocalRefineService(dtlp)

  test("the wrapper passes every call through unchanged and counts it") {
    val spans = new Spans
    val traced = new TracedRefineService(inner, spans)
    val sg = dtlp.partitioning.subgraphs.head
    val Seq(a, b) = sg.boundaryIds.take(2).toSeq
    val requests = Seq(PairRequest(math.min(a, b), math.max(a, b), 3, dtlp.partitioning.subgraphsContainingBoth(a, b).toSeq))
    assert(traced.partialKsp(requests) == inner.partialKsp(requests))
    val interior = sg.vertexIds.find(v => !dtlp.partitioning.isBoundary(v)).get
    assert(traced.attachmentBounds(interior, Set.empty) == inner.attachmentBounds(interior, Set.empty))
    val items = Seq((interior, Set.empty[Int]))
    assert(traced.attachmentBoundsBatch(items) == inner.attachmentBoundsBatch(items))
    assert(spans.n("refine.rounds") == 1)
    assert(spans.n("refine.pair_requests") == 1)
    assert(spans.n("refine.subgraph_ksp_calls") == requests.head.sgIds.size)
    assert(spans.ms("attach") > 0)
  }

  test("an engine over the wrapper answers exactly as one over the wrapped service") {
    val plain = KspDg.local(dtlp, maxIterations = 1500, queryParallelism = 2)
    val traced = new KspDgEngine(dtlp.partitioning, dtlp.skeleton, new TracedRefineService(inner, new Spans),
      maxIterations = 1500, queryParallelism = 2)
    val qs = new Inputs("tiny", 3L, 300, 0, s).queryStream().take(20).toVector
    assert(traced.batch(qs) == plain.batch(qs))
  }
}
