package repro.core

import java.util.concurrent.{CompletableFuture, TimeUnit}
import repro.SparkSpec

/** The shared worker pool's ordered map. */
class WorkerPoolSpec extends SparkSpec {

  test("results keep input order") {
    val xs = (0 until 200).toVector
    val got = WorkerPool.map(xs) { i => if (i % 7 == 0) Thread.sleep(1); i * i }
    assert(got == xs.map(i => i * i))
  }

  test("a nested call from inside a pool task completes") {
    val n = 4 * Runtime.getRuntime.availableProcessors
    val outer = CompletableFuture.supplyAsync { () =>
      WorkerPool.map(0 until n)(i => WorkerPool.map(0 until n)(j => i * j).sum)
    }
    val got = outer.get(60, TimeUnit.SECONDS)
    assert(got == (0 until n).map(i => i * (0 until n).sum))
  }

  test("a task's own exception reaches the caller") {
    val e = intercept[IllegalArgumentException] {
      WorkerPool.map(0 until 20) { i => require(i != 13, s"task $i failed"); i }
    }
    assert(e.getMessage.contains("task 13 failed"))
  }
}
